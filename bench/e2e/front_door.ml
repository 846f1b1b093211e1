(* front-door: the HTTP API on loopback.

   A catalog view of 250 products x 4 vendors under GROUPED-AGG with one
   subscription, feed, on vendor updates.  One client domain holds one
   keep-alive connection and one SSE stream, and cycles RQL filter and
   point queries, POST /sql, and POST /views/catalog/update (see
   [request]).  Every write sets a price no earlier write used,
   and the client waits up to 1 s for the SSE event that carries it; a
   failed op drops both connections and the next one reconnects.  The
   main domain pumps Api.step.  Reads run beside writes on the same view,
   so a read-path cache that taxes writes shows here. *)

open Relkit
module Runtime = Trigview.Runtime
module Api = Httpfront.Api

let products = 250
let vendors = 4
let event_deadline_s = 1.0  (* for a write's SSE event *)
let request_deadline_s = 5.0

let catalog_view =
  {|<catalog>
  {for $name in distinct(view("default")/product/row/pname)
   let $products := view("default")/product/row[./pname = $name]
   let $vendors := view("default")/vendor/row[./pid = $products/pid]
   where count($vendors) >= 2
   return <product name="{$name}">
     {for $v in $vendors return <vendor>{$v/*}</vendor>}
   </product>}
</catalog>|}

let pid i = Printf.sprintf "P%03d" i
let pname i = Printf.sprintf "prod%03d" i

let build_db rng =
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"product"
       ~columns:[ ("pid", Schema.TString); ("pname", Schema.TString); ("mfr", Schema.TString) ]
       ~primary_key:[ "pid" ] ());
  Database.create_table db
    (Schema.make ~name:"vendor"
       ~columns:[ ("vid", Schema.TString); ("pid", Schema.TString); ("price", Schema.TFloat) ]
       ~primary_key:[ "vid"; "pid" ]
       ~foreign_keys:
         [ { Schema.fk_columns = [ "pid" ]; fk_table = "product"; fk_ref_columns = [ "pid" ] } ]
       ());
  Database.create_index db ~table:"vendor" ~column:"pid";
  Database.create_index db ~table:"product" ~column:"pname";
  Database.load_rows db ~table:"product"
    (List.init products (fun i ->
         [| Value.String (pid i); Value.String (pname i); Value.String (Printf.sprintf "M%d" (i mod 7)) |]));
  Database.load_rows db ~table:"vendor"
    (List.init (products * vendors) (fun k ->
         [| Value.String (Printf.sprintf "V%d" (k mod vendors));
            Value.String (pid (k / vendors));
            Value.Float (float_of_int (50 + Random.State.int rng 950));
         |]));
  db

(* The k-th request of a six-request cycle: two RQL filter queries, one RQL
   point query, one SQL write and two view-DML writes.  A view-DML write
   costs about twenty SQL writes here, and with the two paths half and half
   the write median would sit between the two modes, where the smallest
   change of mix moves it; two to one puts it inside the view-DML mode.  A
   write sets the unique [price]. *)
let request rng k ~price =
  let v = Random.State.int rng vendors and p = Random.State.int rng products in
  match k mod 6 with
  | 0 | 4 ->
    ( "GET",
      Printf.sprintf "/views/catalog?ge(price,%d)&level=vendor&sort(-price)&limit(0,20)"
        (50 + Random.State.int rng 950),
      "",
      None )
  | 2 -> ("GET", Printf.sprintf "/views/catalog?eq(name,string:%s)" (pname p), "", None)
  | 1 ->
    ( "POST",
      "/sql",
      Printf.sprintf "UPDATE vendor SET price = %d.0 WHERE vid = 'V%d' AND pid = '%s'" price v (pid p),
      Some price )
  | _ ->
    ( "POST",
      "/views/catalog/update",
      Printf.sprintf
        "REPLACE NODE view('catalog')/product/vendor[./vid = 'V%d' and ./pid = '%s'] WITH \
         <vendor><vid>V%d</vid><pid>%s</pid><price>%d</price></vendor>"
        v (pid p) v (pid p) price,
      Some price )

let contains s sub = Httpc.find s sub 0 <> None

let setup (ctx : Harness.ctx) =
  let rng = Random.State.make [| ctx.seed; 3 |] in
  let mgr = Runtime.create ~strategy:Runtime.Grouped_agg (build_db rng) in
  Harness.setup_call ctx "define_view" (fun () ->
      Runtime.define_view mgr ~name:"catalog" catalog_view);
  let hub = Subscribe.attach mgr in
  Harness.setup_call ctx "create_trigger" (fun () ->
      Subscribe.subscribe hub "feed AFTER UPDATE ON view('catalog')/product/vendor");
  let api = Api.create ~port:0 ~mgr ~hub () in
  let conn = ref None and stream = ref None in
  let k = ref 0 and next_price = ref 10_000 in
  let busy = ref 0L and wall = ref 0L in
  (* Run [client] on a second domain while this one pumps the server.  The
     server's spans are drained here and matched to the client's finished
     ops by interval containment. *)
  let with_client client =
    let finished = Queue.create () and lock = Mutex.create () in
    let post root spans = Mutex.protect lock (fun () -> Queue.push (root, spans) finished) in
    let over = Atomic.make false in
    let d =
      Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.set over true) (fun () -> client post))
    in
    let pending = ref [] in
    let match_ops () =
      pending := !pending @ Harness.drain ctx mgr;
      let ops =
        Mutex.protect lock (fun () ->
            let l = List.of_seq (Queue.to_seq finished) in
            Queue.clear finished;
            l)
      in
      List.iter
        (fun (root, spans) ->
          let mine, rest = List.partition (Spans.contains root) !pending in
          pending := List.filter (fun s -> s.Spans.start_ns >= root.Spans.end_ns) rest;
          Harness.analyze ctx root (spans @ mine))
        ops
    in
    let w0 = Harness.now () in
    while not (Atomic.get over) do
      let b0 = Harness.now () in
      if Api.step ~timeout_ms:1 api > 0 && ctx.Harness.recording then
        busy := Int64.add !busy (Int64.sub (Harness.now ()) b0);
      match_ops ()
    done;
    if ctx.Harness.recording then wall := Int64.add !wall (Int64.sub (Harness.now ()) w0);
    let result = Domain.join d in
    match_ops ();
    result
  in
  let connection () =
    match !conn with
    | Some c -> c
    | None ->
      let c = Httpc.connect (Api.port api) in
      conn := Some c;
      c
  in
  let open_stream () =
    match !stream with
    | Some s -> s
    | None ->
      let s = Httpc.connect (Api.port api) in
      stream := Some s;
      let deadline = Int64.add (Harness.now ()) (Harness.ns_of_s request_deadline_s) in
      let status = Httpc.open_stream s ~deadline ~target:"/subscribe/feed" in
      if status <> 200 then failwith (Printf.sprintf "GET /subscribe/feed: HTTP %d" status);
      s
  in
  (* after a failure the connections may hold a late reply: start afresh *)
  let hang_up () =
    Option.iter Httpc.close !conn;
    Option.iter Httpc.close !stream;
    conn := None;
    stream := None
  in
  let op r =
    let c = connection () and sse = open_stream () in
    let meth, target, body, price = request rng !k ~price:!next_price in
    incr k;
    let t0 = Harness.now () in
    let status, reply =
      Harness.span r ~note:target "http.rtt" (fun () ->
          Httpc.request c
            ~deadline:(Int64.add t0 (Harness.ns_of_s request_deadline_s))
            ~meth ~target ~body)
    in
    let rtt = Harness.ms_since t0 in
    if status < 200 || status > 299 then
      failwith (Printf.sprintf "%s %s: HTTP %d %s" meth target status reply);
    match price with
    | None -> Harness.query ctx rtt
    | Some price ->
      incr next_price;
      Harness.stmt ctx rtt;
      let marker = Printf.sprintf "<price>%d.0</price>" price in
      let deadline = Int64.add (Harness.now ()) (Harness.ns_of_s event_deadline_s) in
      Harness.span r "sse.wait" (fun () ->
          while not (contains (Httpc.next_event sse ~deadline) marker) do
            ()
          done);
      Harness.notify ctx (Harness.ms_since t0)
  in
  let run (ctx : Harness.ctx) ~seconds =
    with_client (fun post ->
        let r = Harness.recorder () in
        let step () =
          Harness.run_op ctx r ~finish:post (fun () ->
              try op r
              with e ->
                hang_up ();
                raise e)
        in
        Harness.closed_loop ctx ~seconds
          ~set_tracing:(fun on ->
            Runtime.set_tracing mgr on;
            r.Harness.on <- on)
          ~step)
  in
  (* 20 sampled queries whose totals must match a recount over the view
     rows, plus a metrics scrape through the API. *)
  let finish ctx =
    if Int64.compare !wall 0L > 0 then
      Harness.set_layer ctx "httpd.busy_frac" (Int64.to_float !busy /. Int64.to_float !wall);
    let vendor_rows = Runtime.view_rows mgr ~view:"catalog" ~level:"vendor" () in
    let product_rows = Runtime.view_rows mgr ~view:"catalog" () in
    let count rows f = List.length (List.filter (fun r -> f r.Runtime.vr_fields) rows) in
    let qrng = Random.State.make [| ctx.Harness.seed; 4 |] in
    let queries =
      List.init 20 (fun i ->
          if i mod 2 = 0 then
            let x = 50 + Random.State.int qrng 950 in
            ( Printf.sprintf "/views/catalog?ge(price,%d)&level=vendor&limit(0,5)" x,
              count vendor_rows (fun f -> Value.to_float (List.assoc "price" f) >= float_of_int x) )
          else
            let name = pname (Random.State.int qrng products) in
            ( Printf.sprintf "/views/catalog?eq(name,string:%s)" name,
              count product_rows (fun f -> List.assoc "@name" f = Value.String name) ))
    in
    match
      with_client (fun _ ->
          let c = connection () in
          let get target =
            Httpc.request c
              ~deadline:(Int64.add (Harness.now ()) (Harness.ns_of_s request_deadline_s))
              ~meth:"GET" ~target ~body:""
          in
          (List.map (fun (target, _) -> get target) queries, get "/metrics"))
    with
    | exception e -> Harness.check ctx false ("oracle queries: " ^ Printexc.to_string e)
    | answers, (mstatus, metrics) ->
      List.iter2
        (fun (target, expected) (status, body) ->
          let total =
            try Json.to_num (Json.member_exn "total" (Json.parse body)) with _ -> Float.nan
          in
          Harness.check ctx
            (status = 200 && total = float_of_int expected)
            (Printf.sprintf "GET %s: HTTP %d, total %g, recount %d" target status total expected))
        queries answers;
      Harness.check ctx
        (mstatus = 200 && contains metrics "trigview_http_total")
        (Printf.sprintf "GET /metrics: HTTP %d" mstatus)
  in
  { Harness.prom =
      (fun () ->
        Runtime.metrics_prometheus mgr ^ Subscribe.metrics_prometheus hub ^ Api.metrics_prometheus api);
    run;
    finish;
    close =
      (fun () ->
        hang_up ();
        Api.stop api);
  }

let workload =
  { Harness.name = "front-door";
    why =
      "The HTTP front door: Httpd/Api/Rql and view evaluation dominate, reads run beside writes on \
       one view, and each write waits for its SSE event.";
    domains = 1;
    setup;
  }
