(* fanout-notify: one write fans out to many subscribers.

   2k leaves at fanout 16, 1 000 GROUPED triggers (20 satisfied) plus 250
   subscriptions on the hot element in four WHERE shapes (four groups),
   COALESCE off.  Every write updates a leaf of the hot element, then
   Subscribe.flush drains the queues into a callback sink that renders each
   notification as NDJSON.  It runs at two domains, the only workload that
   does, so the parallel firing pipeline shows here and nowhere else; as in
   the CLI, the hub's writer domain then runs the sink, and each write
   waits for it to finish ([Subscribe.drain_writer]). *)

open Relkit
module Runtime = Trigview.Runtime

let params = { Table2.depth = 3; leaves = 2_000; fanout = 16 }
let triggers = 1_000
let satisfied = 20
let subscriptions = 250
let domains = 2

(* Four condition shapes, each true of the hot element (4 e2 children, 16
   e3 grandchildren), so the subscriptions form four trigger groups.  The
   last one is evaluated per dispatch rather than in the plan, and such a
   group is keyed by its literal text, so its threshold is shared. *)
let subscribe_text t i =
  let name = Table2.hot_name t in
  let cond =
    match i mod 4 with
    | 0 -> Printf.sprintf "NEW_NODE/@name = '%s'" name
    | 1 -> Printf.sprintf "NEW_NODE/@name = '%s' and count(NEW_NODE/e2) >= %d" name (i / 4 mod 4)
    | 2 -> Printf.sprintf "NEW_NODE/@name = '%s' and count(NEW_NODE/e2) <= %d" name (4 + i)
    | _ -> Printf.sprintf "NEW_NODE/@name = '%s' and count(NEW_NODE/e2/e3) >= 2" name
  in
  Printf.sprintf "SUBSCRIBE s%d AFTER UPDATE ON view('doc')/e1 WHERE %s COALESCE off" i cond

let setup (ctx : Harness.ctx) =
  let t = Table2.build ~seed:ctx.seed params in
  let mgr = Runtime.create ~strategy:Runtime.Grouped t.Table2.db in
  (* the sink's spans, recorded on the writer domain while this one waits *)
  let r = Harness.recorder () and rw = Harness.recorder () in
  let issued = ref 0L and fired = ref 0 and delivered = ref 0 in
  let bytes = Samples.create () in
  Runtime.register_action mgr ~name:"record" (fun _ ->
      Harness.span r "sink.action" (fun () ->
          incr fired;
          Harness.notify ctx (Harness.ms_since !issued)));
  let hub = Subscribe.attach mgr in
  Subscribe.add_callback hub (fun n ->
      Harness.span rw "sink.callback" (fun () ->
          let line =
            Harness.span rw "Notification.to_ndjson" (fun () -> Subscribe.Notification.to_ndjson n)
          in
          if rw.Harness.on then Samples.add bytes (float_of_int (String.length line));
          incr delivered;
          Harness.notify ctx (Harness.ms_since !issued)));
  if domains > 1 then Subscribe.start_writer hub;
  Harness.setup_call ctx "define_view" (fun () ->
      Runtime.define_view mgr ~name:"doc" t.Table2.view_text);
  List.iter
    (fun text -> Harness.setup_call ctx "create_trigger" (fun () -> Runtime.create_trigger mgr text))
    (Table2.trigger_texts t ~n:triggers ~satisfied ~action:"record");
  for i = 0 to subscriptions - 1 do
    Harness.setup_call ctx "create_trigger" (fun () -> Subscribe.subscribe hub (subscribe_text t i))
  done;
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let leaves = t.Table2.leaves_of.(t.Table2.hot) in
  let leaf_table = Table2.leaf_table t in
  let writes = ref 0 in
  let step () =
    Harness.run_op ctx r ~finish:(Harness.defer ctx mgr) (fun () ->
        let leaf = leaves.(Random.State.int rng (Array.length leaves)) in
        fired := 0;
        delivered := 0;
        issued := Harness.now ();
        ignore
          (Harness.span r "Database.update_pk" (fun () ->
               Database.update_pk t.Table2.db ~table:leaf_table ~pk:[ Value.String leaf ]
                 ~set:Paper_fire.bump_price));
        Harness.stmt ctx (Harness.ms_since !issued);
        ignore (Harness.span r "Subscribe.flush" (fun () -> Subscribe.flush hub));
        Harness.span r "Subscribe.drain_writer" (fun () -> Subscribe.drain_writer hub);
        r.Harness.spans <- Harness.take rw @ r.Harness.spans;
        incr writes;
        if !fired <> satisfied || !delivered <> subscriptions then
          Harness.fail ctx
            (Printf.sprintf "write fired %d actions and delivered %d notifications, expected %d and %d"
               !fired !delivered satisfied subscriptions))
  in
  let prom () = Runtime.metrics_prometheus mgr ^ Subscribe.metrics_prometheus hub in
  let finish ctx =
    Harness.set_layer ctx "notification.bytes_p50" (Samples.percentile bytes 0.5);
    let s = Prom.parse (Subscribe.metrics_prometheus hub) in
    let family f = Prom.by_name s ("trigview_subscription_" ^ f) in
    let total f = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (family f) in
    Harness.check ctx
      (total "delivered_total" = float_of_int (subscriptions * !writes))
      (Printf.sprintf "delivered %.0f, expected %d x %d writes" (total "delivered_total") subscriptions
         !writes);
    Harness.check ctx (total "dropped_total" = 0.0) "subscription queues dropped notifications";
    (* Squeue conservation, per subscription *)
    List.iter
      (fun (name, enq) ->
        let get f = Option.value ~default:nan (List.assoc_opt name (family f)) in
        Harness.check ctx
          (enq = get "delivered_total" +. get "dropped_total" +. get "coalesced_total" +. get "depth")
          (Printf.sprintf "subscription %s: enqueued != delivered + dropped + coalesced + depth" name))
      (family "enqueued_total")
  in
  { Harness.prom;
    run =
      (fun ctx ~seconds ->
        Harness.closed_loop ctx ~seconds
          ~set_tracing:(fun on ->
            Runtime.set_tracing mgr on;
            r.Harness.on <- on;
            rw.Harness.on <- on)
          ~step);
    finish;
    close = (fun () -> Subscribe.close_sinks hub);
  }

let workload =
  { Harness.name = "fanout-notify";
    why =
      "One write fans out to 250 subscribers: Subscribe/Squeue/Notification and the domain pool \
       dominate; the only workload at two domains.";
    domains;
    setup;
  }
