(* durable-mixed: logged writes through both statement front ends.

   Table 2 at 16k leaves, 100 GROUPED-AGG triggers (10 satisfied), the WAL
   attached at its default flush policy in a directory under the output
   directory.  Writes are 3/4 Viewupdate.execute REPLACE NODE and 1/4
   Sql.exec UPDATE text (an UPDATE by text scans the leaf table and costs
   about four view-DML writes, so a half-and-half mix would put the write
   median between the two modes), on keys half under the hot element and
   half uniform; Runtime.checkpoint runs every 8 192 statements, inside the write
   that reaches the count, so its stall lands in the latency tail.  After
   the timed phase: a final checkpoint, a fixed tail of statements, and five
   reopens of copies of the data directory, each checked against the live
   database. *)

open Relkit
module Runtime = Trigview.Runtime

let params = { Table2.depth = 3; leaves = 16_000; fanout = 64 }
let triggers = 100
let satisfied = 10
let checkpoint_every = 8192
let tail = 2048
let reopens = 5

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if not (Sys.is_directory s) then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            output_string oc (In_channel.with_open_bin s In_channel.input_all)))
    (Sys.readdir src)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix:"wal-" f then acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* Every user table, rows in a canonical order. *)
let contents db =
  Database.table_names db
  |> List.filter (fun n -> not (String.starts_with ~prefix:"trigconsts" n))
  |> List.sort compare
  |> List.map (fun n ->
         let rows = Table.to_rows (Database.get_table db n) in
         (n, List.sort (fun a b -> compare (Array.to_list a) (Array.to_list b)) rows))

let same_contents a b =
  let a = contents a and b = contents b in
  List.length a = List.length b
  && List.for_all2
       (fun (n, ra) (m, rb) ->
         n = m && List.length ra = List.length rb
         && List.for_all2 (fun x y -> Array.for_all2 Value.equal x y) ra rb)
       a b

let setups = ref 0

let setup (ctx : Harness.ctx) =
  incr setups;
  let dir = Printf.sprintf "%s/durable-mixed-%d-%d" ctx.Harness.tmp (Unix.getpid ()) !setups in
  remove_tree dir;
  Harness.mkdir_p dir;
  let t = Table2.build ~seed:ctx.Harness.seed params in
  let mgr = Runtime.create ~strategy:Runtime.Grouped_agg t.Table2.db in
  let r = Harness.recorder () in
  let issued = ref 0L and fired = ref 0 in
  let record _ =
    Harness.span r "sink.action" (fun () ->
        incr fired;
        Harness.notify ctx (Harness.ms_since !issued))
  in
  Runtime.register_action mgr ~name:"record" record;
  Harness.setup_call ctx "define_view" (fun () ->
      Runtime.define_view mgr ~name:"doc" t.Table2.view_text);
  List.iter
    (fun text -> Harness.setup_call ctx "create_trigger" (fun () -> Runtime.create_trigger mgr text))
    (Table2.trigger_texts t ~n:triggers ~satisfied ~action:"record");
  let data = Filename.concat dir "data" in
  Runtime.attach_durability mgr ~data_dir:data;
  let rng = Random.State.make [| ctx.Harness.seed; 5 |] in
  let tops = Array.length t.Table2.names in
  let statements = ref 0 and next_price = ref 100_000 and periodic = ref true in
  let checkpoints = Samples.create () in
  let checkpoint () =
    let t0 = Harness.now () in
    Harness.span r "Runtime.checkpoint" (fun () -> Runtime.checkpoint mgr);
    Samples.add checkpoints (Harness.ms_since t0)
  in
  let step () =
    Harness.run_op ctx r ~finish:(Harness.defer ctx mgr) (fun () ->
        let e =
          if Random.State.bool rng then t.Table2.hot else Random.State.int rng tops
        in
        let leaves = t.Table2.leaves_of.(e) in
        let leaf = leaves.(Random.State.int rng (Array.length leaves)) in
        let price = !next_price in
        incr next_price;
        fired := 0;
        issued := Harness.now ();
        if Random.State.int rng 4 = 0 then
          ignore
            (Harness.span r "Sql.exec" (fun () ->
                 Sql.exec t.Table2.db
                   (Printf.sprintf "UPDATE %s SET price = %d.0 WHERE id = '%s'" (Table2.leaf_table t)
                      price leaf)))
        else
          ignore
            (Harness.span r "Viewupdate.execute" (fun () ->
                 Viewupdate.execute mgr
                   (Printf.sprintf
                      "REPLACE NODE view('doc')/e1/e2/e3[./id = '%s'] WITH \
                       <e3><id>%s</id><price>%d</price></e3>"
                      leaf leaf price)));
        incr statements;
        if !periodic && !statements mod checkpoint_every = 0 then checkpoint ();
        Harness.stmt ctx (Harness.ms_since !issued);
        let expected = if e = t.Table2.hot then satisfied else 0 in
        if !fired <> expected then
          Harness.fail ctx (Printf.sprintf "write fired %d actions, expected %d" !fired expected))
  in
  let run ctx ~seconds =
    Harness.closed_loop ctx ~seconds
      ~set_tracing:(fun on ->
        Runtime.set_tracing mgr on;
        r.Harness.on <- on)
      ~step
  in
  (* the WAL after the last checkpoint holds exactly the tail, so every
     reopen replays the same number of statements *)
  let finish ctx =
    checkpoint ();
    periodic := false;
    for _ = 1 to tail do
      step ()
    done;
    Runtime.durability_sync mgr;
    Harness.set_layer ctx "wal.bytes_per_stmt" (float_of_int (wal_bytes data) /. float_of_int tail);
    Harness.set_layer ctx "store.checkpoint_p50_ms" (Samples.percentile checkpoints 0.5);
    Harness.set_layer ctx "store.checkpoint_max_ms" (Samples.maximum checkpoints);
    let reopen_s = Samples.create () and replay_s = Samples.create () and rearm_s = Samples.create () in
    for i = 1 to reopens do
      let copy = Printf.sprintf "%s/copy%d" dir i in
      copy_dir data copy;
      let t0 = Harness.now () in
      let reopened = Runtime.reopen ~strategy:Runtime.Grouped_agg ~actions:[ ("record", ignore) ] ~data_dir:copy () in
      let total = Harness.ms_since t0 /. 1e3 in
      let replay = Int64.to_float reopened.Runtime.recovery.Durability.Recovery.duration_ns /. 1e9 in
      Samples.add reopen_s total;
      Samples.add replay_s replay;
      Samples.add rearm_s (total -. replay);
      let again = reopened.Runtime.runtime in
      Harness.check ctx
        (same_contents t.Table2.db (Runtime.database again))
        (Printf.sprintf "reopen %d: tables differ from the live database" i);
      Harness.check ctx
        (reopened.Runtime.rearmed_triggers = triggers && reopened.Runtime.rearm_errors = [])
        (Printf.sprintf "reopen %d: re-armed %d triggers (%s)" i reopened.Runtime.rearmed_triggers
           (String.concat "; " reopened.Runtime.rearm_errors));
      Runtime.detach_durability again;
      remove_tree copy
    done;
    let med s = Samples.median_of (Samples.to_array s) in
    Harness.set_layer ctx "recovery.reopen_s" (med reopen_s);
    Harness.set_layer ctx "recovery.replay_s" (med replay_s);
    Harness.set_layer ctx "recovery.rearm_s" (med rearm_s)
  in
  { Harness.prom = (fun () -> Runtime.metrics_prometheus mgr);
    run;
    finish;
    close =
      (fun () ->
        Runtime.detach_durability mgr;
        remove_tree dir);
  }

let workload =
  { Harness.name = "durable-mixed";
    why =
      "Logged writes through SQL text and view DML: Wal/Store/Recovery, Sql and Viewupdate \
       dominate, with checkpoint stalls in the tail.";
    domains = 1;
    setup;
  }
