(* paper-fire: the paper's own workload, at the Table 2 bold defaults.

   10 000 structurally similar triggers under GROUPED, 20 of them satisfied
   by the hot element, with bare action callbacks.  Each write is one
   Database.update_pk of a leaf price: 3/4 under the hot element (20
   triggers fire), 1/4 under one of the other elements (the plans run and
   nothing is satisfied).  Firing does nearly all the work; no WAL, hub or
   HTTP is involved. *)

open Relkit
module Runtime = Trigview.Runtime

let params = { Table2.depth = 3; leaves = 128_000; fanout = 64 }
let triggers = 10_000
let satisfied = 20

let bump_price row =
  let row = Array.copy row in
  let last = Array.length row - 1 in
  row.(last) <- Value.add row.(last) (Value.Float 1.0);
  row

let setup (ctx : Harness.ctx) =
  let t = Table2.build ~seed:ctx.seed params in
  let mgr = Runtime.create ~strategy:Runtime.Grouped t.db in
  let r = Harness.recorder () in
  let issued = ref 0L and fired = ref 0 and last_new = ref None in
  Runtime.register_action mgr ~name:"record" (fun fi ->
      Harness.span r "sink.action" (fun () ->
          incr fired;
          Harness.notify ctx (Harness.ms_since !issued);
          last_new := fi.Runtime.fi_new));
  Harness.setup_call ctx "define_view" (fun () ->
      Runtime.define_view mgr ~name:"doc" t.Table2.view_text);
  List.iter
    (fun text -> Harness.setup_call ctx "create_trigger" (fun () -> Runtime.create_trigger mgr text))
    (Table2.trigger_texts t ~n:triggers ~satisfied ~action:"record");
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let tops = Array.length t.Table2.names in
  let leaf_table = Table2.leaf_table t in
  let hot_writes = ref 0 and hot_new = ref None in
  let step () =
    Harness.run_op ctx r ~finish:(Harness.defer ctx mgr) (fun () ->
        let hot = Random.State.int rng 4 < 3 in
        let e = if hot then t.Table2.hot else (t.Table2.hot + 1 + Random.State.int rng (tops - 1)) mod tops in
        let leaves = t.Table2.leaves_of.(e) in
        let leaf = leaves.(Random.State.int rng (Array.length leaves)) in
        fired := 0;
        issued := Harness.now ();
        let found =
          Harness.span r "Database.update_pk" (fun () ->
              Database.update_pk t.Table2.db ~table:leaf_table ~pk:[ Value.String leaf ] ~set:bump_price)
        in
        Harness.stmt ctx (Harness.ms_since !issued);
        let expected = if hot then satisfied else 0 in
        if not found then Harness.fail ctx ("no leaf " ^ leaf)
        else if !fired <> expected then
          Harness.fail ctx (Printf.sprintf "%s write fired %d actions, expected %d"
                              (if hot then "hot" else "cold") !fired expected);
        if hot then begin
          incr hot_writes;
          hot_new := !last_new
        end)
  in
  let finish ctx =
    let text = Runtime.metrics_prometheus mgr in
    let dispatched = Prom.sum ~name:"actions_dispatched" (Prom.parse text) "trigview_runtime_total" in
    Harness.check ctx
      (dispatched = float_of_int (satisfied * !hot_writes))
      (Printf.sprintf "actions_dispatched %.0f, expected %d x %d hot writes" dispatched satisfied
         !hot_writes);
    (* Definitions 2/3: the last NEW_NODE equals the element recomputed
       from the view over the current tables *)
    match Runtime.view_nodes mgr ~path:(Table2.hot_path t), !hot_new with
    | [ node ], Some seen ->
      Harness.check ctx (Xmlkit.Xml.equal node seen)
        "last NEW_NODE of the hot element differs from the recomputed view"
    | nodes, _ ->
      Harness.check ctx false
        (Printf.sprintf "recomputed view has %d hot elements; no NEW_NODE seen" (List.length nodes))
  in
  { Harness.prom = (fun () -> Runtime.metrics_prometheus mgr);
    run =
      (fun ctx ~seconds ->
        Harness.closed_loop ctx ~seconds
          ~set_tracing:(fun on ->
            Runtime.set_tracing mgr on;
            r.Harness.on <- on)
          ~step);
    finish;
    close = ignore;
  }

let workload =
  { Harness.name = "paper-fire";
    why =
      "The paper's own Table 2 workload: Pushdown/Runtime firing does nearly all the work, a hot \
       element beside a cold tail, no WAL, hub or HTTP.";
    domains = 1;
    setup;
  }
