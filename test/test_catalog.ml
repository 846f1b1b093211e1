(* Catalog and memory suite: the runtime keeps only its live catalog and
   nothing per statement.  A qcheck property compares [Runtime.current_meta]
   over random DDL histories with the compaction fold the catalog replaced
   (kept here as the oracle); view DML leaves no catalog entry across a
   checkpoint and reopen; TUNE cannot re-arm a dropped trigger's text; and
   the view-update translator's memos die with their runtime. *)

open Relkit
module Runtime = Trigview.Runtime
module Vu = Viewupdate

let catalog_view =
  {|<catalog>
    {for $prodname in distinct(view("default")/product/row/pname)
     let $products := view("default")/product/row[./pname = $prodname]
     let $vendors := view("default")/vendor/row[./pid = $products/pid]
     where count($vendors) >= 2
     return <product name="{$prodname}">
       {for $vendor in $vendors return <vendor>{$vendor/*}</vendor>}
     </product>}
  </catalog>|}

let mk_mgr () =
  let mgr = Runtime.create (Fixtures.mk_db ()) in
  Runtime.define_view mgr ~name:"catalog" catalog_view;
  Runtime.register_action mgr ~name:"note" (fun _ -> ());
  mgr

let replace_price price =
  Printf.sprintf
    "REPLACE NODE view('catalog')/product/vendor[./vid = 'Amazon'] WITH \
     <vendor><vid>Amazon</vid><pid>P1</pid><price>%d</price></vendor>"
    price

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_catalog_%d_%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  dir

(* The catalog's former compaction, over the whole record history in log
   order: a ["drop_<kind>"] record cancels the earlier ["<kind>"] records of
   the same name and is dropped itself. *)
let oracle_fold records =
  let records = Array.of_list records in
  let keep = Array.make (Array.length records) true in
  let live = Hashtbl.create 64 in
  let positions k = Option.value ~default:[] (Hashtbl.find_opt live k) in
  Array.iteri
    (fun i (kind, name, _) ->
      if String.length kind > 5 && String.sub kind 0 5 = "drop_" then begin
        let k = (String.sub kind 5 (String.length kind - 5), name) in
        keep.(i) <- false;
        List.iter (fun j -> keep.(j) <- false) (positions k);
        Hashtbl.remove live k
      end
      else Hashtbl.replace live (kind, name) (i :: positions (kind, name)))
    records;
  List.filteri (fun i _ -> keep.(i)) (Array.to_list records)

(* --- random histories: current_meta = the old fold --- *)

type step =
  | Create_view of int
  | Create_trigger of int
  | Drop_trigger of int
  | Subscribe of int
  | Unsubscribe of int
  | Tune of int
  | View_dml of int
  | Custom of string * int
  | Drop_custom of string * int

let show_step = function
  | Create_view i -> Printf.sprintf "view v%d" i
  | Create_trigger i -> Printf.sprintf "trigger t%d" i
  | Drop_trigger i -> Printf.sprintf "drop trigger t%d" i
  | Subscribe i -> Printf.sprintf "subscribe s%d" i
  | Unsubscribe i -> Printf.sprintf "unsubscribe s%d" i
  | Tune i -> Printf.sprintf "tune t%d" i
  | View_dml p -> Printf.sprintf "view dml price %d" p
  | Custom (k, i) -> Printf.sprintf "%s c%d" k i
  | Drop_custom (k, i) -> Printf.sprintf "drop_%s c%d" k i

let step_gen =
  let open QCheck.Gen in
  let idx = int_range 0 2 and kind = oneofl [ "x"; "y"; "tune" ] in
  frequency
    [ (1, map (fun i -> Create_view i) idx);
      (3, map (fun i -> Create_trigger i) idx);
      (3, map (fun i -> Drop_trigger i) idx);
      (2, map (fun i -> Subscribe i) idx);
      (2, map (fun i -> Unsubscribe i) idx);
      (2, map (fun i -> Tune i) idx);
      (3, map (fun p -> View_dml p) (int_range 90 99));
      (2, map2 (fun k i -> Custom (k, i)) kind idx);
      (2, map2 (fun k i -> Drop_custom (k, i)) kind idx);
    ]

let trigger_text i =
  Printf.sprintf "CREATE TRIGGER t%d AFTER UPDATE ON view('catalog')/product DO note(NEW_NODE)" i

let sub_text i = Printf.sprintf "s%d AFTER UPDATE ON view('catalog')/product" i

(* Applies [step] through the public API and returns the records the
   runtime logged for it before the catalog was keyed — view DML logged a
   provenance record and its drop. *)
let apply mgr hub = function
  | Create_view i ->
    let name = Printf.sprintf "v%d" i in
    if Runtime.find_view mgr name <> None then []
    else begin
      Runtime.define_view mgr ~name catalog_view;
      [ ("view", name, catalog_view) ]
    end
  | Create_trigger i ->
    let name = Printf.sprintf "t%d" i in
    if List.mem name (Runtime.trigger_names mgr) then []
    else begin
      Runtime.create_trigger mgr (trigger_text i);
      [ ("xmltrigger", name, trigger_text i) ]
    end
  | Drop_trigger i ->
    let name = Printf.sprintf "t%d" i in
    let live = List.mem name (Runtime.trigger_names mgr) in
    Runtime.drop_trigger mgr name;
    if live then [ ("drop_xmltrigger", name, "") ] else []
  | Subscribe i ->
    let name = Printf.sprintf "s%d" i in
    if List.mem name (Subscribe.subscription_names hub) then []
    else begin
      Subscribe.subscribe hub (sub_text i);
      [ ("subscription", name, sub_text i) ]
    end
  | Unsubscribe i ->
    let name = Printf.sprintf "s%d" i in
    if not (List.mem name (Subscribe.subscription_names hub)) then []
    else begin
      Subscribe.unsubscribe hub name;
      [ ("drop_subscription", name, "") ]
    end
  | Tune i ->
    let name = Printf.sprintf "t%d" i in
    Runtime.record_custom_ddl mgr ~kind:"tune" ~name ~payload:"UNGROUPED";
    [ ("tune", name, "UNGROUPED") ]
  | View_dml price ->
    let name =
      Printf.sprintf "vdml%d" (Database.statement_count (Runtime.database mgr) + 1)
    in
    let p = Vu.execute mgr (replace_price price) in
    if p.Vu.p_ops = [] then []
    else [ ("viewdml", name, p.Vu.p_text); ("drop_viewdml", name, "") ]
  | Custom (kind, i) ->
    let name = Printf.sprintf "c%d" i and payload = Printf.sprintf "%s-%d" kind i in
    Runtime.record_custom_ddl mgr ~kind ~name ~payload;
    [ (kind, name, payload) ]
  | Drop_custom (kind, i) ->
    let name = Printf.sprintf "c%d" i in
    Runtime.record_custom_ddl mgr ~kind:("drop_" ^ kind) ~name ~payload:"";
    [ ("drop_" ^ kind, name, "") ]

let meta_testable = Alcotest.(list (triple string string string))

let prop_current_meta_is_old_fold =
  QCheck.Test.make ~count:150 ~name:"current_meta = old fold over random histories"
    QCheck.(make ~print:(Print.list show_step) Gen.(list_size (int_range 0 40) step_gen))
    (fun steps ->
      let mgr = mk_mgr () in
      let hub = Subscribe.attach mgr in
      let history =
        ("view", "catalog", catalog_view) :: List.concat_map (apply mgr hub) steps
      in
      let expected = oracle_fold history in
      let got = Runtime.current_meta mgr in
      if got <> expected then
        QCheck.Test.fail_reportf "current_meta:@.%a@.old fold:@.%a" (Alcotest.pp meta_testable)
          got (Alcotest.pp meta_testable) expected;
      true)

(* --- view DML leaves no catalog entry across checkpoint + reopen --- *)

let reopened_meta_after ~statements =
  let dir = fresh_dir (Printf.sprintf "vdml%d" statements) in
  let mgr = mk_mgr () in
  Runtime.attach_durability mgr ~data_dir:dir;
  for i = 1 to statements do
    ignore (Vu.execute mgr (replace_price (100 + (i mod 2))))
  done;
  Runtime.checkpoint mgr;
  Runtime.detach_durability mgr;
  let r = Runtime.reopen ~data_dir:dir () in
  Runtime.detach_durability r.Runtime.runtime;
  rm_rf dir;
  r.Runtime.recovery.Durability.Recovery.meta

let test_viewdml_leaves_no_catalog_entry () =
  let base = reopened_meta_after ~statements:0 in
  let after = reopened_meta_after ~statements:2000 in
  Alcotest.(check int) "recovered meta records" (List.length base) (List.length after);
  Alcotest.check meta_testable "recovered catalog" base after

(* The runtime's retained memory does not grow with the statements it has
   run: a second batch of view DML adds no reachable words beyond a fixed
   allowance (the audit ring and window series are bounded). *)
let test_viewdml_retains_nothing () =
  let mgr = mk_mgr () in
  let run n =
    for i = 1 to n do
      ignore (Vu.execute mgr (replace_price (100 + (i mod 2))))
    done
  in
  run 500;
  let before = Obj.reachable_words (Obj.repr mgr) in
  run 1000;
  let grown = Obj.reachable_words (Obj.repr mgr) - before in
  if grown > 5_000 then
    Alcotest.failf "1000 view-DML statements grew the runtime by %d words" grown

(* --- TUNE reads the live catalog --- *)

let test_tune_dropped_trigger () =
  let mgr = mk_mgr () in
  let db = Runtime.database mgr in
  let text = trigger_text 0 in
  Runtime.create_trigger mgr text;
  Runtime.drop_trigger mgr "t0";
  (* re-armed without a catalog record: the dropped record's text must not
     be found by TUNE *)
  Runtime.create_trigger ~log:false mgr text;
  List.iter
    (fun price -> Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price)
    [ 101.0; 102.0 ];
  match Runtime.tune ~trigger:"t0" mgr with
  | out -> Alcotest.failf "tune re-armed a dropped trigger's text:\n%s" out
  | exception Runtime.Error msg ->
    Alcotest.(check bool) ("error names the missing DDL: " ^ msg) true
      (let sub = "no logged DDL" in
       let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0)

let test_drop_is_constant_time () =
  let mgr = mk_mgr () in
  let n = 2000 in
  for i = 1 to n do
    Runtime.record_custom_ddl mgr ~kind:"x" ~name:(string_of_int i) ~payload:"p"
  done;
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Runtime.record_custom_ddl mgr ~kind:"drop_x" ~name:(string_of_int i) ~payload:""
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "only the view is left" 1 (List.length (Runtime.current_meta mgr));
  if dt > 0.5 then Alcotest.failf "%d drops took %.3f s" n dt

(* --- the translator's memos die with their runtime --- *)

let run_and_forget weak i =
  let mgr = mk_mgr () in
  Weak.set weak i (Some (Runtime.database mgr));
  ignore (Vu.execute mgr (replace_price (90 + i)));
  ignore (Vu.execute mgr "DELETE NODE view('catalog')/product/vendor[./vid = 'Amazon']")

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_memos_die_with_runtime () =
  let n = 20 in
  let weak = Weak.create (n + 1) in
  (Sys.opaque_identity run_and_forget) weak n;
  let before = live_words () in
  for i = 0 to n - 1 do
    (Sys.opaque_identity run_and_forget) weak i
  done;
  let grown = live_words () - before in
  let alive = List.filter (Weak.check weak) (List.init (n + 1) Fun.id) in
  Alcotest.(check (list int)) "no database outlives its runtime" [] alive;
  (* the planner's memos went with their runtimes too *)
  if grown > 2_000 then
    Alcotest.failf "%d dropped runtimes left %d live words behind" n grown

let () =
  Alcotest.run "catalog"
    [ ( "catalog",
        [ QCheck_alcotest.to_alcotest prop_current_meta_is_old_fold;
          Alcotest.test_case "tune of a dropped trigger" `Quick test_tune_dropped_trigger;
          Alcotest.test_case "2000 drops" `Quick test_drop_is_constant_time;
        ] );
      ( "memory",
        [ Alcotest.test_case "view DML leaves no catalog entry" `Quick
            test_viewdml_leaves_no_catalog_entry;
          Alcotest.test_case "view DML retains nothing" `Quick test_viewdml_retains_nothing;
          Alcotest.test_case "memos die with the runtime" `Quick test_memos_die_with_runtime;
        ] );
    ]
