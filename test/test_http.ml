(* The HTTP front door: RQL parsing/printing (golden + qcheck round-trip),
   query compilation onto the relational planner, and the Httpd/Api stack
   end to end over a real TCP socket — JSON and XML view queries, SQL and
   view-DML endpoints firing triggers into SSE streams, Last-Event-ID
   replay across reconnects, admission control, long-poll deadlines, and
   malformed-request fuzz. *)

module Rql = Httpfront.Rql
module Httpd = Httpfront.Httpd
module Api = Httpfront.Api
module Runtime = Trigview.Runtime
module Value = Relkit.Value

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- RQL unit tests --- *)

let test_rql_golden () =
  let q =
    Rql.parse "eq(region,ASIA)&ge(price,100)&sort(-open_auctions,+name)&limit(0,50)"
  in
  (match q.Rql.filters with
  | [ a; b ] ->
    Alcotest.(check string) "field 1" "region" a.Rql.f_field;
    Alcotest.(check bool) "cmp 1" true (a.Rql.f_cmp = Rql.Eq);
    Alcotest.(check bool) "value 1" true (a.Rql.f_value = Value.String "ASIA");
    Alcotest.(check string) "field 2" "price" b.Rql.f_field;
    Alcotest.(check bool) "cmp 2" true (b.Rql.f_cmp = Rql.Ge);
    Alcotest.(check bool) "value 2 is int" true (b.Rql.f_value = Value.Int 100)
  | _ -> Alcotest.fail "expected two filters");
  Alcotest.(check bool) "sorts" true
    (q.Rql.sorts = [ ("open_auctions", true); ("name", false) ]);
  Alcotest.(check bool) "limit" true (q.Rql.limit = Some (0, 50));
  Alcotest.(check bool) "select empty" true (q.Rql.select = [])

let test_rql_values () =
  let v text = (List.hd (Rql.parse ("eq(f," ^ text ^ ")")).Rql.filters).Rql.f_value in
  Alcotest.(check bool) "int" true (v "42" = Value.Int 42);
  Alcotest.(check bool) "negative int" true (v "-7" = Value.Int (-7));
  Alcotest.(check bool) "float" true (v "1.5" = Value.Float 1.5);
  Alcotest.(check bool) "bool" true (v "true" = Value.Bool true);
  Alcotest.(check bool) "null" true (v "null" = Value.Null);
  Alcotest.(check bool) "string" true (v "ASIA" = Value.String "ASIA");
  Alcotest.(check bool) "forced string" true (v "string:123" = Value.String "123");
  Alcotest.(check bool) "pct-decoded comma" true (v "a%2Cb" = Value.String "a,b");
  Alcotest.(check bool) "pct-decoded space" true (v "CRT%2015" = Value.String "CRT 15")

let test_rql_errors () =
  let bad text =
    match Rql.parse text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception Rql.Error _ -> ()
  in
  bad "badop(x,y)";
  bad "eq(onlyone)";
  bad "eq(a,b,c)";
  bad "limit(a,b)";
  bad "limit(-1,5)";
  bad "eq(a,b";
  bad "eq(a,(b))";
  bad "sort()";
  bad "eq(a,%GG)";
  bad "noparens"

(* round-trip: print is canonical, parse . print = id *)
let rql_gen =
  let open QCheck.Gen in
  let field = oneofl [ "name"; "price"; "vid"; "a_b"; "x" ] in
  let value =
    oneof
      [ map (fun n -> Value.Int n) small_signed_int;
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
        map (fun f -> Value.Float f) (float_range (-1000.) 1000.);
        map
          (fun s -> Value.String s)
          (oneofl [ "ASIA"; "CRT 15"; "a,b"; "x&y"; "(p)"; "string:z"; "-q"; "" ]);
      ]
  in
  let filter =
    map3
      (fun f c v -> { Rql.f_field = f; f_cmp = c; f_value = v })
      field
      (oneofl [ Rql.Eq; Rql.Ne; Rql.Lt; Rql.Le; Rql.Gt; Rql.Ge ])
      value
  in
  let sorts = list_size (int_bound 3) (pair field bool) in
  let limit = opt (pair (int_bound 100) (int_bound 100)) in
  let select = list_size (int_bound 3) field in
  map
    (fun ((filters, sorts), (limit, select)) ->
      { Rql.filters; sorts; limit; select })
    (pair (pair (list_size (int_bound 4) filter) sorts) (pair limit select))

let test_rql_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rql print/parse round-trip"
    (QCheck.make rql_gen ~print:(fun q -> Rql.print q))
    (fun q ->
      let q' = Rql.parse (Rql.print q) in
      (* Float NaN would break structural equality, but the generator
         only draws finite floats *)
      q' = q)

(* --- end-to-end over TCP --- *)

let catalog_text =
  {|<catalog>
  {for $prodname in distinct(view("default")/product/row/pname)
   let $products := view("default")/product/row[./pname = $prodname]
   let $vendors := view("default")/vendor/row[./pid = $products/pid]
   where count($vendors) >= 2
   return <product name="{$prodname}">
     {for $vendor in $vendors
      return <vendor>{$vendor/*}</vendor>}
   </product>}
</catalog>|}

let with_api ?max_inflight ?deadline_ms ?retain f =
  let db = Fixtures.mk_db () in
  let mgr = Runtime.create ~strategy:Runtime.Grouped_agg db in
  Runtime.define_view mgr ~name:"catalog" catalog_text;
  let hub = Subscribe.attach mgr in
  let api = Api.create ?max_inflight ?deadline_ms ?retain ~port:0 ~mgr ~hub () in
  Fun.protect ~finally:(fun () -> Api.stop api) (fun () -> f db mgr hub api)

let connect api =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Api.port api));
  Unix.set_nonblock fd;
  fd

let send fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        go off
  in
  go 0

let recv_into fd buf =
  let b = Bytes.create 65536 in
  match Unix.read fd b 0 (Bytes.length b) with
  | 0 -> `Eof
  | n ->
    Buffer.add_subbytes buf b 0 n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Nothing

(* pump the server and the client fd until [pred] holds on the bytes
   received so far (or a generous round limit runs out) *)
let pump_until api fd buf pred =
  let rounds = ref 0 in
  while (not (pred (Buffer.contents buf))) && !rounds < 1000 do
    incr rounds;
    ignore (Api.step ~timeout_ms:2 api);
    ignore (recv_into fd buf)
  done;
  Buffer.contents buf

type http_response = {
  r_status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let parse_response data =
  match Stdlib.String.index_opt data '\r' with
  | None -> Alcotest.failf "no status line in %S" data
  | Some _ ->
    let head_end =
      let rec find i =
        if i + 3 >= String.length data then
          Alcotest.failf "incomplete head in %S" data
        else if String.sub data i 4 = "\r\n\r\n" then i
        else find (i + 1)
      in
      find 0
    in
    let head = String.sub data 0 head_end in
    let rest = String.sub data (head_end + 4) (String.length data - head_end - 4) in
    (match String.split_on_char '\r' head with
    | status :: hdr_lines ->
      let status_code =
        match String.split_on_char ' ' status with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line %S" status
      in
      let headers =
        List.filter_map
          (fun line ->
            let line =
              if String.length line > 0 && line.[0] = '\n' then
                String.sub line 1 (String.length line - 1)
              else line
            in
            match Stdlib.String.index_opt line ':' with
            | Some i ->
              Some
                ( String.lowercase_ascii (String.sub line 0 i),
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)) )
            | None -> None)
          hdr_lines
      in
      { r_status = status_code; r_headers = headers; r_body = rest }
    | [] -> Alcotest.failf "empty head in %S" data)

(* head complete + content-length satisfied *)
let has_full_response data =
  let rec find_head i =
    if i + 3 >= String.length data then None
    else if String.sub data i 4 = "\r\n\r\n" then Some i
    else find_head (i + 1)
  in
  match find_head 0 with
  | None -> false
  | Some head_end -> (
    let r = parse_response data in
    match List.assoc_opt "content-length" r.r_headers with
    | Some l -> String.length data - head_end - 4 >= int_of_string (String.trim l)
    | None -> true)

let request ?(meth = "GET") ?(headers = []) ?(body = "") api target =
  let fd = connect api in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  send fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nhost: t\r\n%scontent-length: %d\r\n\r\n%s"
       meth target extra (String.length body) body);
  let buf = Buffer.create 512 in
  let data = pump_until api fd buf has_full_response in
  parse_response data

let test_http_healthz () =
  with_api @@ fun _db _mgr _hub api ->
  let r = request api "/healthz" in
  Alcotest.(check int) "200" 200 r.r_status;
  Tjson.check_valid_json "healthz" r.r_body;
  Alcotest.(check bool) "ok" true (contains r.r_body "\"ok\": true")

let test_http_step_reports_activity () =
  (* the CLI pump loop relies on step returning > 0 while there is work *)
  with_api @@ fun _db _mgr _hub api ->
  let fd = connect api in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  send fd "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
  (* give the kernel a moment to deliver, then the accept round must
     report the listener as ready *)
  Unix.sleepf 0.05;
  let n1 = Api.step ~timeout_ms:50 api in
  Alcotest.(check bool) "accept round sees activity" true (n1 > 0);
  let total = ref n1 in
  for _ = 1 to 20 do
    total := !total + Api.step ~timeout_ms:2 api
  done;
  let buf = Buffer.create 256 in
  ignore (recv_into fd buf);
  Alcotest.(check bool) "served" true
    (contains (Buffer.contents buf) "200")

let test_http_query_json () =
  with_api @@ fun _db _mgr _hub api ->
  let r = request api "/views/catalog" in
  Alcotest.(check int) "200" 200 r.r_status;
  let j = Tjson.parse_json r.r_body in
  Alcotest.(check string) "view" "catalog"
    (Tjson.as_str "view" (Tjson.member_exn "q" "view" j));
  Alcotest.(check (float 0.0)) "total" 2.0
    (Tjson.as_num "total" (Tjson.member_exn "q" "total" j));
  let rows = Tjson.as_arr "rows" (Tjson.member_exn "q" "rows" j) in
  Alcotest.(check int) "two products" 2 (List.length rows)

let test_http_query_rql () =
  with_api @@ fun _db _mgr _hub api ->
  (* vendor level: price >= 130 descending, vid+price only *)
  let r =
    request api
      "/views/catalog?ge(price,130)&sort(-price)&level=vendor&select(vid,price)"
  in
  Alcotest.(check int) "200" 200 r.r_status;
  let j = Tjson.parse_json r.r_body in
  let rows = Tjson.as_arr "rows" (Tjson.member_exn "q" "rows" j) in
  Alcotest.(check int) "four offers >= 130" 4 (List.length rows);
  let prices =
    List.map
      (fun row ->
        Tjson.as_num "price"
          (Tjson.member_exn "row" "price" (Tjson.member_exn "row" "fields" row)))
      rows
  in
  Alcotest.(check (list (float 0.0))) "sorted descending"
    [ 200.0; 180.0; 150.0; 140.0 ] prices;
  (* limit slices after the sort *)
  let r2 =
    request api "/views/catalog?ge(price,130)&sort(-price)&limit(1,2)&level=vendor"
  in
  let j2 = Tjson.parse_json r2.r_body in
  Alcotest.(check (float 0.0)) "total unaffected by limit" 4.0
    (Tjson.as_num "t" (Tjson.member_exn "q" "total" j2));
  Alcotest.(check int) "sliced" 2
    (List.length (Tjson.as_arr "rows" (Tjson.member_exn "q" "rows" j2)))

let test_http_query_xml () =
  with_api @@ fun _db _mgr _hub api ->
  let r =
    request api ~headers:[ ("accept", "application/xml") ]
      "/views/catalog?eq(name,string:CRT%2015)"
  in
  Alcotest.(check int) "200" 200 r.r_status;
  Alcotest.(check bool) "xml content type" true
    (match List.assoc_opt "content-type" r.r_headers with
    | Some ct -> contains ct "application/xml"
    | None -> false);
  Alcotest.(check bool) "results element" true
    (contains r.r_body "<results view=\"catalog\"");
  Alcotest.(check bool) "product payload" true
    (contains r.r_body "<product name=\"CRT 15\">")

let test_http_query_errors () =
  with_api @@ fun _db _mgr _hub api ->
  let r = request api "/views/nosuch" in
  Alcotest.(check int) "unknown view 404" 404 r.r_status;
  let r = request api "/views/catalog?badop(a,b)" in
  Alcotest.(check int) "bad rql 400" 400 r.r_status;
  Tjson.check_valid_json "rql error payload" r.r_body;
  let j = Tjson.parse_json r.r_body in
  let detail = Tjson.member_exn "err" "detail" j in
  let fields = Tjson.as_arr "fields" (Tjson.member_exn "err" "fields" detail) in
  (* nested arrays: each field is a [name] singleton *)
  Alcotest.(check bool) "fields are arrays" true
    (List.for_all (function Tjson.J_arr [ Tjson.J_str _ ] -> true | _ -> false) fields);
  Alcotest.(check bool) "lists @name" true
    (List.exists
       (function Tjson.J_arr [ Tjson.J_str "@name" ] -> true | _ -> false)
       fields);
  let r = request api "/views/catalog?eq(nosuchfield,1)" in
  Alcotest.(check int) "unknown field 400" 400 r.r_status;
  let r = request api ~meth:"DELETE" "/views/catalog" in
  Alcotest.(check int) "405" 405 r.r_status;
  let r = request api "/nope" in
  Alcotest.(check int) "404" 404 r.r_status

let test_http_sql () =
  with_api @@ fun _db _mgr _hub api ->
  let r = request api ~meth:"POST" ~body:"SELECT pname FROM product" "/sql" in
  Alcotest.(check int) "200" 200 r.r_status;
  let j = Tjson.parse_json r.r_body in
  Alcotest.(check (float 0.0)) "three rows" 3.0
    (Tjson.as_num "count" (Tjson.member_exn "q" "count" j));
  let r =
    request api ~meth:"POST"
      ~body:"UPDATE vendor SET price = 101.0 WHERE vid = 'Amazon'" "/sql"
  in
  Alcotest.(check int) "200" 200 r.r_status;
  Alcotest.(check bool) "affected" true (contains r.r_body "\"affected\": 1");
  let r = request api ~meth:"POST" ~body:"SELEKT broken" "/sql" in
  Alcotest.(check int) "sql error 400" 400 r.r_status

(* an SSE client: connect, upgrade, and collect frames while pumping *)
let open_sse ?(headers = []) api name =
  let fd = connect api in
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  send fd (Printf.sprintf "GET /subscribe/%s HTTP/1.1\r\nhost: t\r\n%s\r\n" name extra);
  fd

let test_http_dml_to_sse () =
  with_api @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor";
  let fd = open_sse api "feed" in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let buf = Buffer.create 512 in
  ignore (pump_until api fd buf (fun d -> contains d "text/event-stream"));
  Alcotest.(check bool) "sse headers" true
    (contains (Buffer.contents buf) "text/event-stream");
  (* DML over HTTP fires the trigger; Api.step flushes the hub into the
     stream within the same pump loop *)
  let r =
    request api ~meth:"POST"
      ~body:"UPDATE vendor SET price = 99.0 WHERE vid = 'Amazon'" "/sql"
  in
  Alcotest.(check int) "dml ok" 200 r.r_status;
  let data = pump_until api fd buf (fun d -> contains d "event: notification") in
  Alcotest.(check bool) "sse event id" true (contains data "id: 1");
  Alcotest.(check bool) "payload names the subscription" true
    (contains data "\"subscription\": \"feed\"");
  Alcotest.(check bool) "payload carries the new node" true
    (contains data "99.0")

let test_http_sse_replay () =
  with_api @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor COALESCE off";
  (* two firings before any client connects *)
  let dml price =
    ignore
      (request api ~meth:"POST"
         ~body:(Printf.sprintf "UPDATE vendor SET price = %.1f WHERE vid = 'Amazon'" price)
         "/sql")
  in
  dml 91.0;
  dml 92.0;
  (* a late subscriber with Last-Event-ID: 1 must get event 2 replayed,
     and only event 2 — exactly the reconnect contract *)
  let fd = open_sse api ~headers:[ ("Last-Event-ID", "1") ] "feed" in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let buf = Buffer.create 512 in
  let data = pump_until api fd buf (fun d -> contains d "id: 2") in
  Alcotest.(check bool) "replays event 2" true (contains data "92.0");
  Alcotest.(check bool) "does not replay event 1" false (contains data "id: 1\n");
  (* a client from cursor 0 gets both *)
  let fd2 = open_sse api ~headers:[ ("Last-Event-ID", "0") ] "feed" in
  Fun.protect ~finally:(fun () -> try Unix.close fd2 with _ -> ()) @@ fun () ->
  let buf2 = Buffer.create 512 in
  let data2 = pump_until api fd2 buf2 (fun d -> contains d "id: 2") in
  Alcotest.(check bool) "full replay has event 1" true (contains data2 "id: 1");
  Alcotest.(check bool) "and event 1's payload" true (contains data2 "91.0")

let test_http_sse_gap () =
  (* retain 1: a cursor-0 reconnect after 2 events fell out of retention
     and must be told so with a gap event before the live tail *)
  with_api ~retain:1 @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor COALESCE off";
  ignore
    (request api ~meth:"POST"
       ~body:"UPDATE vendor SET price = 91.0 WHERE vid = 'Amazon'" "/sql");
  ignore
    (request api ~meth:"POST"
       ~body:"UPDATE vendor SET price = 92.0 WHERE vid = 'Amazon'" "/sql");
  let fd = open_sse api ~headers:[ ("Last-Event-ID", "0") ] "feed" in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let buf = Buffer.create 512 in
  let data = pump_until api fd buf (fun d -> contains d "id: 2") in
  Alcotest.(check bool) "gap signalled" true (contains data "event: gap");
  Alcotest.(check bool) "gap tells the oldest retained" true
    (contains data "\"oldest\": 2");
  (* only event 2 is redelivered as a notification (event 1's payload
     does surface as event 2's OLD node — that is not a redelivery) *)
  let rec count_from i acc =
    if i + 19 > String.length data then acc
    else if String.sub data i 19 = "event: notification" then
      count_from (i + 19) (acc + 1)
    else count_from (i + 1) acc
  in
  Alcotest.(check int) "one notification replayed" 1 (count_from 0 0);
  Alcotest.(check bool) "event 2 replayed" true (contains data "92.0")

let test_http_longpoll () =
  with_api @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor COALESCE off";
  ignore
    (request api ~meth:"POST"
       ~body:"UPDATE vendor SET price = 93.0 WHERE vid = 'Amazon'" "/sql");
  (* events pending: the long-poll answers immediately *)
  let r = request api "/subscribe/feed?mode=longpoll&cursor=0" in
  Alcotest.(check int) "200" 200 r.r_status;
  Tjson.check_valid_json "batch" r.r_body;
  let j = Tjson.parse_json r.r_body in
  Alcotest.(check (float 0.0)) "cursor advanced" 1.0
    (Tjson.as_num "cursor" (Tjson.member_exn "b" "cursor" j));
  Alcotest.(check int) "one event" 1
    (List.length (Tjson.as_arr "events" (Tjson.member_exn "b" "events" j)));
  Alcotest.(check int) "unknown feed is 404" 404
    (request api "/subscribe/nosuch?mode=longpoll").r_status

let test_http_longpoll_deadline () =
  (* no pending events: held until the deadline, then an empty batch *)
  with_api ~deadline_ms:120 @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor";
  let t0 = Unix.gettimeofday () in
  let r = request api "/subscribe/feed?mode=longpoll&cursor=0" in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "empty batch 200" 200 r.r_status;
  let j = Tjson.parse_json r.r_body in
  Alcotest.(check int) "no events" 0
    (List.length (Tjson.as_arr "events" (Tjson.member_exn "b" "events" j)));
  Alcotest.(check bool) "held until the deadline" true (dt >= 0.1);
  Alcotest.(check bool) "counted as deadline abort" true
    (Httpd.deadline_aborts (Api.httpd api) >= 1)

let test_http_admission_control () =
  (* one in-flight stream allowed: the second subscriber is refused *)
  with_api ~max_inflight:1 @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER UPDATE ON view('catalog')/product/vendor";
  let fd = open_sse api "feed" in
  let buf = Buffer.create 256 in
  ignore (pump_until api fd buf (fun d -> contains d "text/event-stream"));
  let r = request api "/subscribe/feed" in
  Alcotest.(check int) "503" 503 r.r_status;
  Alcotest.(check bool) "retry-after" true
    (List.mem_assoc "retry-after" r.r_headers);
  Alcotest.(check bool) "counted" true (Httpd.overloads (Api.httpd api) >= 1);
  (* at the cap the server sheds ALL new requests — its capacity is
     consumed by the streams it is already carrying *)
  let r2 = request api "/healthz" in
  Alcotest.(check int) "queries shed too" 503 r2.r_status;
  (* the client leaving frees the slot *)
  Unix.close fd;
  for _ = 1 to 20 do
    ignore (Api.step ~timeout_ms:2 api)
  done;
  let r3 = request api "/healthz" in
  Alcotest.(check int) "recovers once the stream closes" 200 r3.r_status

let test_http_malformed () =
  with_api @@ fun _db _mgr _hub api ->
  let raw bytes pred =
    let fd = connect api in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
    send fd bytes;
    let buf = Buffer.create 256 in
    let data = pump_until api fd buf pred in
    data
  in
  let got_400 = raw "NONSENSE\r\n\r\n" (fun d -> contains d "HTTP/1.1 400") in
  Alcotest.(check bool) "garbage request line" true (contains got_400 "400");
  let got =
    raw "GET /healthz HTTP/1.0\r\nbad header line\r\n\r\n"
      (fun d -> contains d "HTTP/1.1 ")
  in
  Alcotest.(check bool) "bad header handled" true (contains got "HTTP/1.1 ");
  let chunked =
    raw "POST /sql HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
      (fun d -> contains d "HTTP/1.1 501")
  in
  Alcotest.(check bool) "chunked rejected" true (contains chunked "501");
  let huge =
    raw
      (Printf.sprintf "POST /sql HTTP/1.1\r\ncontent-length: %d\r\n\r\n" (10 * 1024 * 1024))
      (fun d -> contains d "HTTP/1.1 413")
  in
  Alcotest.(check bool) "oversized body refused" true (contains huge "413");
  (* the server survives all of it *)
  Alcotest.(check int) "still serving" 200 (request api "/healthz").r_status

let test_http_fuzz =
  QCheck.Test.make ~count:60 ~name:"malformed bytes never crash the server"
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun junk ->
      with_api @@ fun _db _mgr _hub api ->
      let fd = connect api in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
      (if String.length junk > 0 then send fd junk);
      for _ = 1 to 20 do
        ignore (Api.step ~timeout_ms:1 api)
      done;
      (* whatever the junk did, a well-formed request still succeeds *)
      (request api "/healthz").r_status = 200)

let test_http_pipelined_input_bounded () =
  (* A client pipelines ~3 MB of requests without reading a reply.  The
     server reads a connection only while it is between requests, so the
     unread requests wait in the kernel under TCP backpressure and the
     server's buffered input stays within one read chunk plus one
     maximal request.  Then every reply arrives, in order. *)
  let h = Httpd.create ~port:0 () in
  Fun.protect ~finally:(fun () -> Httpd.stop h) @@ fun () ->
  Httpd.set_handler h (fun req ->
      Httpd.Respond { status = 200; headers = []; body = req.Httpd.query });
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* a small receive window, so unread replies back up quickly *)
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Httpd.port h));
  Unix.set_nonblock fd;
  let n = 100_000 in
  let requests =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "GET /healthz?%d HTTP/1.1\r\n\r\n" i))
  in
  let expected =
    String.concat ""
      (List.init n (fun i ->
           let body = string_of_int i in
           Printf.sprintf
             "HTTP/1.1 200 OK\r\ncontent-length: %d\r\nconnection: keep-alive\r\n\r\n%s"
             (String.length body) body))
  in
  let bound = 65536 + (16 * 1024) + (1 lsl 20) in
  let sent = ref 0 and peak = ref 0 in
  let push () =
    if !sent < String.length requests then
      match Unix.write_substring fd requests !sent (String.length requests - !sent) with
      | k -> sent := !sent + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let pump () =
    ignore (Httpd.step ~timeout_ms:1 h);
    peak := max !peak (Httpd.buffered_input h)
  in
  (* phase 1: keep writing and pumping, reading nothing; room for the
     server to read all of it at one chunk per round *)
  for _ = 1 to 300 do
    push ();
    pump ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "buffered input %d within %d while unread" !peak bound)
    true (!peak <= bound);
  (* phase 2: read everything, still sending the rest *)
  let got = Buffer.create (String.length expected) in
  let rounds = ref 0 in
  while Buffer.length got < String.length expected && !rounds < 200_000 do
    incr rounds;
    push ();
    pump ();
    ignore (recv_into fd got)
  done;
  Alcotest.(check bool) (Printf.sprintf "peak buffered input %d within %d" !peak bound)
    true (!peak <= bound);
  Alcotest.(check int) "all replies" (String.length expected) (Buffer.length got);
  Alcotest.(check bool) "replies in request order" true (Buffer.contents got = expected)

let test_http_view_update () =
  with_api @@ fun _db _mgr hub api ->
  Subscribe.subscribe hub
    "feed AFTER DELETE ON view('catalog')/product/vendor";
  (* targeting the wrong view 409s before planning *)
  let r =
    request api ~meth:"POST"
      ~body:"DELETE NODE view(\"other\")/product/vendor[./vid = 'Amazon']"
      "/views/catalog/update"
  in
  Alcotest.(check int) "view mismatch 409" 409 r.r_status;
  (* a deletable node translates to base DML, fires triggers, reaches SSE *)
  let fd = open_sse api "feed" in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let buf = Buffer.create 512 in
  ignore (pump_until api fd buf (fun d -> contains d "text/event-stream"));
  let r =
    request api ~meth:"POST"
      ~body:"DELETE NODE view(\"catalog\")/product/vendor[./vid = 'Amazon']"
      "/views/catalog/update"
  in
  Alcotest.(check int) "executed" 200 r.r_status;
  Tjson.check_valid_json "plan summary" r.r_body;
  Alcotest.(check bool) "ops rendered" true (contains r.r_body "DELETE FROM vendor");
  let data = pump_until api fd buf (fun d -> contains d "event: notification") in
  Alcotest.(check bool) "delete reached the feed" true
    (contains data "\"event\": \"DELETE\"");
  (* an ambiguous statement is rejected with the structured diagnostic *)
  let r =
    request api ~meth:"POST"
      ~body:"DELETE NODE view(\"catalog\")/product" "/views/catalog/update"
  in
  Alcotest.(check int) "rejected 422" 422 r.r_status;
  Tjson.check_valid_json "diagnostic" r.r_body;
  Alcotest.(check bool) "carries the reason" true (contains r.r_body "\"reason\":")

let test_http_metrics () =
  with_api @@ fun _db _mgr hub api ->
  (* a subscription, a socket sink and one fired statement, so every hub
     family has samples; the connection gauges depend on when the server
     notices the earlier requests' closed sockets, so they are masked *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_http_%d.sock" (Unix.getpid ()))
  in
  let server = Subscribe.Server.create ~path:sock () in
  Fun.protect ~finally:(fun () -> Subscribe.Server.stop server) @@ fun () ->
  Subscribe.add_server hub server;
  Subscribe.subscribe hub "feed AFTER UPDATE ON view('catalog')/product/vendor";
  ignore (request api "/healthz");
  let r =
    request api ~meth:"POST"
      ~body:"UPDATE vendor SET price = 99.0 WHERE vid = 'Amazon'" "/sql"
  in
  Alcotest.(check int) "dml ok" 200 r.r_status;
  let r = request api "/metrics" in
  Alcotest.(check int) "200" 200 r.r_status;
  Prom_inventory.check
    ~timed:
      [ "trigview_window_rate"; "trigview_window_ewma";
        "trigview_recommended_strategy"; "trigview_http_connections" ]
    "runtime, hub and http families"
    [
      "# TYPE trigview_runtime_total counter";
      "trigview_runtime_total{name=\"sql_firings\"} 1";
      "trigview_runtime_total{name=\"rows_computed\"} 1";
      "trigview_runtime_total{name=\"actions_dispatched\"} 1";
      "trigview_runtime_total{name=\"plans_compiled\"} 2";
      "trigview_runtime_total{name=\"compiled_execs\"} 1";
      "trigview_runtime_total{name=\"build_cache_hits\"} 0";
      "trigview_runtime_total{name=\"build_cache_misses\"} 0";
      "trigview_runtime_total{name=\"prefilter_skips\"} 3";
      "trigview_runtime_total{name=\"independence_skips\"} 0";
      "trigview_runtime_total{name=\"triggers_dropped\"} 0";
      "# TYPE trigview_obs_config gauge";
      "trigview_obs_config{name=\"trace_ring\"} 8192";
      "trigview_obs_config{name=\"audit_ring\"} 4096";
      "trigview_obs_config{name=\"window_buckets\"} 12";
      "trigview_obs_config{name=\"window_width_ms\"} 5000";
      "# TYPE trigview_window_rate gauge";
      "trigview_window_rate{name=\"dml:product\"} _";
      "trigview_window_rate{name=\"dml:trigconsts0\"} _";
      "trigview_window_rate{name=\"dml:vendor\"} _";
      "trigview_window_rate{name=\"dml_rows:product\"} _";
      "trigview_window_rate{name=\"dml_rows:trigconsts0\"} _";
      "trigview_window_rate{name=\"dml_rows:vendor\"} _";
      "trigview_window_rate{name=\"firings:g0\"} _";
      "trigview_window_rate{name=\"kept:g0\"} _";
      "trigview_window_rate{name=\"latency_ns:g0\"} _";
      "trigview_window_rate{name=\"pairs:g0\"} _";
      "trigview_window_rate{name=\"scan_rows:g0\"} _";
      "trigview_window_rate{name=\"skips:prefilter\"} _";
      "# TYPE trigview_window_ewma gauge";
      "trigview_window_ewma{name=\"dml:product\"} _";
      "trigview_window_ewma{name=\"dml:trigconsts0\"} _";
      "trigview_window_ewma{name=\"dml:vendor\"} _";
      "trigview_window_ewma{name=\"dml_rows:product\"} _";
      "trigview_window_ewma{name=\"dml_rows:trigconsts0\"} _";
      "trigview_window_ewma{name=\"dml_rows:vendor\"} _";
      "trigview_window_ewma{name=\"firings:g0\"} _";
      "trigview_window_ewma{name=\"kept:g0\"} _";
      "trigview_window_ewma{name=\"latency_ns:g0\"} _";
      "trigview_window_ewma{name=\"pairs:g0\"} _";
      "trigview_window_ewma{name=\"scan_rows:g0\"} _";
      "trigview_window_ewma{name=\"skips:prefilter\"} _";
      "# TYPE trigview_recommended_strategy gauge";
      "trigview_recommended_strategy{name=\"sub$feed\"} _";
      "# TYPE trigview_scan_rows_total counter";
      "trigview_scan_rows_total{name=\"delta:vendor\"} 2";
      "trigview_scan_rows_total{name=\"nabla:vendor\"} 2";
      "trigview_scan_rows_total{name=\"scan:trigconsts0\"} 1";
      "# TYPE trigview_probe_total counter";
      "trigview_probe_total{name=\"product/pk_probes\"} 13";
      "trigview_probe_total{name=\"product/pk_hits\"} 10";
      "trigview_probe_total{name=\"product/idx_probes\"} 0";
      "trigview_probe_total{name=\"product/idx_hits\"} 0";
      "trigview_probe_total{name=\"product/scan_lookups\"} 0";
      "trigview_probe_total{name=\"product/lookup_cache_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/pk_probes\"} 1";
      "trigview_probe_total{name=\"trigconsts0/pk_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/idx_probes\"} 0";
      "trigview_probe_total{name=\"trigconsts0/idx_hits\"} 0";
      "trigview_probe_total{name=\"trigconsts0/scan_lookups\"} 0";
      "trigview_probe_total{name=\"trigconsts0/lookup_cache_hits\"} 0";
      "trigview_probe_total{name=\"vendor/pk_probes\"} 9";
      "trigview_probe_total{name=\"vendor/pk_hits\"} 2";
      "trigview_probe_total{name=\"vendor/idx_probes\"} 0";
      "trigview_probe_total{name=\"vendor/idx_hits\"} 0";
      "trigview_probe_total{name=\"vendor/scan_lookups\"} 0";
      "trigview_probe_total{name=\"vendor/lookup_cache_hits\"} 0";
      "# TYPE trigview_latency_ns histogram";
      "trigview_latency_ns_bucket{name=\"firing:g0:vendor\",le=\"+Inf\"} 1";
      "trigview_latency_ns_sum{name=\"firing:g0:vendor\"} _";
      "trigview_latency_ns_count{name=\"firing:g0:vendor\"} 1";
      "trigview_latency_ns_bucket{name=\"sub$feed\",le=\"+Inf\"} 1";
      "trigview_latency_ns_sum{name=\"sub$feed\"} _";
      "trigview_latency_ns_count{name=\"sub$feed\"} 1";
      "# TYPE trigview_audit_total counter";
      "trigview_audit_total{name=\"records\"} 0";
      "trigview_audit_total{name=\"dropped\"} 0";
      "# TYPE trigview_subscription_enqueued_total counter";
      "trigview_subscription_enqueued_total{name=\"feed\"} 1";
      "# TYPE trigview_subscription_delivered_total counter";
      "trigview_subscription_delivered_total{name=\"feed\"} 1";
      "# TYPE trigview_subscription_dropped_total counter";
      "trigview_subscription_dropped_total{name=\"feed\"} 0";
      "# TYPE trigview_subscription_coalesced_total counter";
      "trigview_subscription_coalesced_total{name=\"feed\"} 0";
      "# TYPE trigview_subscription_depth gauge";
      "trigview_subscription_depth{name=\"feed\"} 0";
      "# TYPE trigview_subscribe_server_total counter";
      "trigview_subscribe_server_total{name=\"published\"} 1";
      "trigview_subscribe_server_total{name=\"frames_sent\"} 0";
      "trigview_subscribe_server_total{name=\"clients_dropped\"} 0";
      "trigview_subscribe_server_total{name=\"clients_evicted\"} 0";
      "# TYPE trigview_subscribe_server_deadline_ms gauge";
      "trigview_subscribe_server_deadline_ms{name=\"configured\"} 10000";
      "# TYPE trigview_subscribe_server_clients gauge";
      "trigview_subscribe_server_clients{name=\"connected\"} 0";
      "# TYPE trigview_delivery_ns histogram";
      "trigview_delivery_ns_bucket{name=\"deliver:feed\",le=\"+Inf\"} 1";
      "trigview_delivery_ns_sum{name=\"deliver:feed\"} _";
      "trigview_delivery_ns_count{name=\"deliver:feed\"} 1";
      "# TYPE trigview_http_total counter";
      "trigview_http_total{name=\"requests\"} 3";
      "trigview_http_total{name=\"responses\"} 2";
      "trigview_http_total{name=\"overloads\"} 0";
      "trigview_http_total{name=\"deadline_aborts\"} 0";
      "trigview_http_total{name=\"clients_evicted\"} 0";
      "trigview_http_total{name=\"clients_dropped\"} 0";
      "trigview_http_total{name=\"sse_streams\"} 0";
      "trigview_http_total{name=\"sse_events_sent\"} 0";
      "trigview_http_total{name=\"published\"} 1";
      "# TYPE trigview_http_connections gauge";
      "trigview_http_connections{name=\"connected\"} _";
      "trigview_http_connections{name=\"inflight\"} _";
      "# TYPE trigview_http_config gauge";
      "trigview_http_config{name=\"deadline_ms\"} 10000";
      "trigview_http_config{name=\"max_inflight\"} 64";
      "# TYPE trigview_http_latency_ns histogram";
      "trigview_http_latency_ns_bucket{name=\"http:GET /healthz\",le=\"+Inf\"} 1";
      "trigview_http_latency_ns_sum{name=\"http:GET /healthz\"} _";
      "trigview_http_latency_ns_count{name=\"http:GET /healthz\"} 1";
      "trigview_http_latency_ns_bucket{name=\"http:POST /sql\",le=\"+Inf\"} 1";
      "trigview_http_latency_ns_sum{name=\"http:POST /sql\"} _";
      "trigview_http_latency_ns_count{name=\"http:POST /sql\"} 1";

    ]
    r.r_body;
  Alcotest.(check bool) "runtime series" true
    (contains r.r_body "trigview_runtime_total");
  Alcotest.(check bool) "http counters" true
    (contains r.r_body "trigview_http_total{name=\"requests\"}");
  Alcotest.(check bool) "per-endpoint latency" true
    (contains r.r_body "trigview_http_latency_ns");
  let r = request api "/stats" in
  Alcotest.(check int) "stats 200" 200 r.r_status;
  Tjson.check_valid_json "stats json" r.r_body;
  let r = request api "/analyze" in
  Alcotest.(check int) "analyze 200" 200 r.r_status;
  Tjson.check_valid_json "analyze json" r.r_body

let () =
  Alcotest.run "http"
    [ ( "rql",
        [ Alcotest.test_case "golden" `Quick test_rql_golden;
          Alcotest.test_case "value typing" `Quick test_rql_values;
          Alcotest.test_case "errors" `Quick test_rql_errors;
          QCheck_alcotest.to_alcotest test_rql_roundtrip;
        ] );
      ( "endpoints",
        [ Alcotest.test_case "healthz" `Quick test_http_healthz;
          Alcotest.test_case "step reports activity" `Quick
            test_http_step_reports_activity;
          Alcotest.test_case "query json" `Quick test_http_query_json;
          Alcotest.test_case "query rql" `Quick test_http_query_rql;
          Alcotest.test_case "query xml" `Quick test_http_query_xml;
          Alcotest.test_case "query errors" `Quick test_http_query_errors;
          Alcotest.test_case "sql" `Quick test_http_sql;
          Alcotest.test_case "view update" `Quick test_http_view_update;
          Alcotest.test_case "sse gap" `Quick test_http_sse_gap;
          Alcotest.test_case "metrics" `Quick test_http_metrics;
        ] );
      ( "subscribe",
        [ Alcotest.test_case "dml to sse" `Quick test_http_dml_to_sse;
          Alcotest.test_case "last-event-id replay" `Quick test_http_sse_replay;
          Alcotest.test_case "long-poll" `Quick test_http_longpoll;
          Alcotest.test_case "long-poll deadline" `Quick test_http_longpoll_deadline;
          Alcotest.test_case "admission control" `Quick test_http_admission_control;
        ] );
      ( "robustness",
        [ Alcotest.test_case "malformed requests" `Quick test_http_malformed;
          Alcotest.test_case "pipelined input stays bounded" `Quick
            test_http_pipelined_input_bounded;
          QCheck_alcotest.to_alcotest test_http_fuzz;
        ] );
    ]
