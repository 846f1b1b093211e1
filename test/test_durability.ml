(* Durability subsystem tests: codec round-trips (qcheck), WAL fault
   injection (torn tails, bit flips, crash between segment rotations),
   snapshot atomicity/fallback, and end-to-end crash recovery that must
   drop exactly the torn tail and nothing else. *)

open Relkit
module Codec = Durability.Codec
module Wal = Durability.Wal
module Snapshot = Durability.Snapshot
module Recovery = Durability.Recovery
module Store = Durability.Store

let dir_counter = ref 0

let fresh_dir name =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_test_%d_%d_%s" (Unix.getpid ()) !dir_counter name)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  dir

let wal_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "wal-")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* --- generators --- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) int;
        (* finite floats only: NaN is not reflexive under (=) *)
        map (fun f -> Value.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Value.String s) (string_size (int_bound 12));
        map (fun b -> Value.Bool b) bool;
      ])

let row_gen = QCheck.Gen.(map Array.of_list (list_size (int_range 1 5) value_gen))
let rows_gen = QCheck.Gen.(list_size (int_bound 6) row_gen)
let name_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let col_type_gen =
  QCheck.Gen.oneofl [ Schema.TInt; Schema.TFloat; Schema.TString; Schema.TBool ]

(* Built directly as a record (not via Schema.make) so the codec is exercised
   on arbitrary nullable flags and constraint lists, valid or not. *)
let schema_gen =
  QCheck.Gen.(
    let column_gen =
      map3
        (fun n t nl -> { Schema.col_name = n; col_type = t; nullable = nl })
        name_gen col_type_gen bool
    in
    let fk_gen =
      map3
        (fun cols tbl refs ->
          { Schema.fk_columns = cols; fk_table = tbl; fk_ref_columns = refs })
        (list_size (int_range 1 2) name_gen)
        name_gen
        (list_size (int_range 1 2) name_gen)
    in
    map
      (fun (name, columns, pk, uniques, fks) ->
        { Schema.name; columns; primary_key = pk; uniques; foreign_keys = fks })
      (tup5 name_gen
         (list_size (int_range 1 4) column_gen)
         (list_size (int_bound 2) name_gen)
         (list_size (int_bound 2) (list_size (int_range 1 2) name_gen))
         (list_size (int_bound 2) fk_gen)))

let stmt_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun t r -> Codec.Insert { table = t; rows = r }) name_gen rows_gen;
        (* before/after must be pairwise: the decoder rejects a count mismatch *)
        map2
          (fun t pairs ->
            Codec.Update
              { table = t; before = List.map fst pairs; after = List.map snd pairs })
          name_gen
          (list_size (int_bound 6) (pair row_gen row_gen));
        map2 (fun t r -> Codec.Delete { table = t; rows = r }) name_gen rows_gen;
        map (fun s -> Codec.Create_table s) schema_gen;
        map2 (fun t c -> Codec.Create_index { table = t; column = c }) name_gen name_gen;
        map3 (fun k n p -> Codec.Meta { kind = k; name = n; payload = p })
          name_gen name_gen (string_size (int_bound 40));
      ])

let stmt_arb = QCheck.make ~print:(fun s -> Codec.encode_stmt s |> String.escaped) stmt_gen

(* --- codec --- *)

let codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec: decode (encode stmt) = stmt" stmt_arb
    (fun stmt -> Codec.decode_stmt (Codec.encode_stmt stmt) = stmt)

let codec_trailing_garbage_rejected =
  QCheck.Test.make ~count:100 ~name:"codec: trailing bytes rejected" stmt_arb
    (fun stmt ->
      match Codec.decode_stmt (Codec.encode_stmt stmt ^ "x") with
      | _ -> false
      | exception Codec.Corrupt _ -> true)

let codec_truncation_rejected =
  QCheck.Test.make ~count:100 ~name:"codec: truncated payload rejected" stmt_arb
    (fun stmt ->
      let s = Codec.encode_stmt stmt in
      QCheck.assume (String.length s > 1);
      match Codec.decode_stmt (String.sub s 0 (String.length s - 1)) with
      | _ -> false
      | exception Codec.Corrupt _ -> true)

let test_crc32_known () =
  (* the zlib/IEEE test vector *)
  Alcotest.(check int)
    "crc32 of \"123456789\"" 0xcbf43926
    (Codec.crc32 "123456789")

(* --- WAL --- *)

let sample_stmts n =
  List.init n (fun i ->
      Codec.Insert
        { table = "t";
          rows = [ [| Value.Int i; Value.String (Printf.sprintf "row%d" i) |] ];
        })

let test_wal_roundtrip () =
  let dir = fresh_dir "wal_roundtrip" in
  let stmts = sample_stmts 20 in
  let wal = Wal.open_log ~policy:Wal.Always dir in
  List.iter (Wal.append wal) stmts;
  Wal.close wal;
  let records, status = Wal.read_dir dir in
  Alcotest.(check bool) "clean tail" true (status = Wal.Clean);
  Alcotest.(check bool) "all records back in order" true (records = stmts)

let test_wal_torn_tail () =
  let dir = fresh_dir "wal_torn" in
  let stmts = sample_stmts 10 in
  let wal = Wal.open_log ~policy:Wal.Always dir in
  List.iter (Wal.append wal) stmts;
  Wal.close wal;
  let path = List.hd (wal_files dir) in
  (* cut the last record mid-payload *)
  Unix.truncate path ((Unix.stat path).Unix.st_size - 3);
  let records, status = Wal.read_dir dir in
  Alcotest.(check int) "one record dropped" 9 (List.length records);
  Alcotest.(check bool) "prefix intact" true
    (records = List.filteri (fun i _ -> i < 9) stmts);
  (match status with
  | Wal.Torn { reason; _ } ->
    Alcotest.(check string) "reason" "truncated record payload" reason
  | Wal.Clean -> Alcotest.fail "expected a torn tail")

let test_wal_torn_header () =
  let dir = fresh_dir "wal_torn_header" in
  let wal = Wal.open_log ~policy:Wal.Always dir in
  List.iter (Wal.append wal) (sample_stmts 5);
  Wal.close wal;
  let path = List.hd (wal_files dir) in
  (* leave 4 bytes of the next header: not even a full length+crc *)
  let full = (Unix.stat path).Unix.st_size in
  Unix.truncate path (full - 1);
  let with_partial_header, _ = Wal.read_dir dir in
  Alcotest.(check int) "payload cut" 4 (List.length with_partial_header)

let test_wal_bit_flip () =
  let dir = fresh_dir "wal_flip" in
  let stmts = sample_stmts 10 in
  let wal = Wal.open_log ~policy:Wal.Always dir in
  List.iter (Wal.append wal) stmts;
  Wal.close wal;
  let path = List.hd (wal_files dir) in
  (* flip one byte inside the 6th record's payload *)
  let size = (Unix.stat path).Unix.st_size in
  let record_bytes = size / 10 in
  let victim = (5 * record_bytes) + Wal.header_bytes + 2 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd victim Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd victim Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let records, status = Wal.read_dir dir in
  Alcotest.(check int) "stops before the corrupt record" 5 (List.length records);
  (match status with
  | Wal.Torn { reason; _ } ->
    Alcotest.(check string) "reason" "checksum mismatch" reason
  | Wal.Clean -> Alcotest.fail "expected checksum rejection")

let test_wal_rotation () =
  let dir = fresh_dir "wal_rotate" in
  let stmts = sample_stmts 200 in
  (* tiny segment limit: force many rotations *)
  let wal = Wal.open_log ~segment_limit:256 ~policy:Wal.Never dir in
  List.iter (Wal.append wal) stmts;
  Wal.close wal;
  Alcotest.(check bool) "several segments" true (List.length (wal_files dir) > 3);
  let records, status = Wal.read_dir dir in
  Alcotest.(check bool) "clean" true (status = Wal.Clean);
  Alcotest.(check bool) "order preserved across segments" true (records = stmts)

let test_wal_crash_between_rotations () =
  (* a crash right after [rotate] leaves an empty newest segment — the reader
     must treat that as a clean (empty) tail, not an error *)
  let dir = fresh_dir "wal_rotate_crash" in
  let stmts = sample_stmts 8 in
  let wal = Wal.open_log ~policy:Wal.Always dir in
  List.iter (Wal.append wal) stmts;
  ignore (Wal.rotate wal);
  Wal.close wal;
  Alcotest.(check int) "two segments on disk" 2 (List.length (wal_files dir));
  let records, status = Wal.read_dir dir in
  Alcotest.(check bool) "clean" true (status = Wal.Clean);
  Alcotest.(check bool) "nothing lost" true (records = stmts);
  (* and a torn tail in an *earlier* segment hides later segments entirely:
     records past a tear can depend on the lost ones *)
  let first = List.hd (wal_files dir) in
  Unix.truncate first ((Unix.stat first).Unix.st_size - 2);
  let records, status = Wal.read_dir dir in
  Alcotest.(check int) "only the intact prefix" 7 (List.length records);
  Alcotest.(check bool) "torn" true (status <> Wal.Clean)

(* --- snapshots --- *)

let small_db () =
  let db = Database.create () in
  Database.create_table db
    (Schema.make ~name:"a"
       ~columns:[ ("id", Schema.TInt); ("label", Schema.TString) ]
       ~primary_key:[ "id" ] ());
  Database.create_table db
    (Schema.make ~name:"b"
       ~columns:[ ("id", Schema.TInt); ("aid", Schema.TInt) ]
       ~primary_key:[ "id" ]
       ~foreign_keys:
         [ { Schema.fk_columns = [ "aid" ]; fk_table = "a"; fk_ref_columns = [ "id" ] } ]
       ());
  Database.create_index db ~table:"b" ~column:"aid";
  Database.insert_rows db ~table:"a"
    (List.init 5 (fun i -> [| Value.Int i; Value.String (Printf.sprintf "a%d" i) |]));
  Database.insert_rows db ~table:"b"
    (List.init 10 (fun i -> [| Value.Int i; Value.Int (i mod 5) |]));
  db

let sorted_rows db name =
  List.sort compare (Table.to_rows (Database.get_table db name))

let test_snapshot_roundtrip () =
  let dir = fresh_dir "snap_roundtrip" in
  Wal.mkdirs dir;
  let db = small_db () in
  let meta = [ ("view", "v", "<doc/>"); ("xmltrigger", "t", "CREATE TRIGGER ...") ] in
  let contents = Snapshot.capture db ~exclude:(fun _ -> false) ~meta ~wal_start:7 in
  let path = Snapshot.write ~dir ~id:3 contents in
  let back = Snapshot.load path in
  Alcotest.(check bool) "contents round-trip" true (back = contents);
  Alcotest.(check int) "wal_start" 7 back.Snapshot.wal_start;
  Alcotest.(check int) "meta entries" 2 (List.length back.Snapshot.meta)

let test_snapshot_excludes_system_tables () =
  let dir = fresh_dir "snap_exclude" in
  Wal.mkdirs dir;
  let db = small_db () in
  let contents =
    Snapshot.capture db ~exclude:(fun n -> n = "b") ~meta:[] ~wal_start:0
  in
  Alcotest.(check (list string)) "only table a"
    [ "a" ]
    (List.map (fun (s, _, _) -> s.Schema.name) contents.Snapshot.tables)

let test_snapshot_corrupt_fallback () =
  let dir = fresh_dir "snap_fallback" in
  Wal.mkdirs dir;
  let db = small_db () in
  let contents = Snapshot.capture db ~exclude:(fun _ -> false) ~meta:[] ~wal_start:1 in
  ignore (Snapshot.write ~dir ~id:1 contents);
  let newest = Snapshot.write ~dir ~id:2 { contents with Snapshot.wal_start = 2 } in
  (* corrupt the newest snapshot: flip a byte past the header *)
  let fd = Unix.openfile newest [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  (match Snapshot.latest dir with
  | Some (id, c) ->
    Alcotest.(check int) "fell back to snapshot 1" 1 id;
    Alcotest.(check int) "its wal_start" 1 c.Snapshot.wal_start
  | None -> Alcotest.fail "expected fallback to the older snapshot");
  Snapshot.prune dir ~keep:1;
  Alcotest.(check (list int)) "prune keeps newest id" [ 2 ] (Snapshot.ids dir)

(* --- recovery --- *)

(* Attach a store to a fresh database, run DML through the normal path (so
   the WAL sees it), and hand back the pieces. *)
let durable_db dir =
  Wal.mkdirs dir;
  let db = Database.create () in
  let store = Store.attach ~policy:Wal.Always ~data_dir:dir db in
  Database.create_table db
    (Schema.make ~name:"a"
       ~columns:[ ("id", Schema.TInt); ("label", Schema.TString) ]
       ~primary_key:[ "id" ] ());
  Database.insert_rows db ~table:"a"
    (List.init 8 (fun i -> [| Value.Int i; Value.String (Printf.sprintf "v%d" i) |]));
  (db, store)

let test_recovery_wal_only () =
  let dir = fresh_dir "rec_wal" in
  let db, _store = durable_db dir in
  ignore
    (Database.update_pk db ~table:"a" ~pk:[ Value.Int 3 ]
       ~set:(fun r -> [| r.(0); Value.String "updated" |]));
  ignore (Database.delete_pk db ~table:"a" ~pk:[ Value.Int 7 ]);
  let outcome = Recovery.recover ~data_dir:dir () in
  Alcotest.(check (list string)) "no errors" [] outcome.Recovery.errors;
  Alcotest.(check bool) "clean" true (outcome.Recovery.wal_status = Wal.Clean);
  Alcotest.(check bool) "rows match the live db" true
    (sorted_rows outcome.Recovery.db "a" = sorted_rows db "a");
  Alcotest.(check int) "deleted row stayed deleted" 7
    (Table.row_count (Database.get_table outcome.Recovery.db "a"))

let test_recovery_snapshot_plus_tail () =
  let dir = fresh_dir "rec_snap_tail" in
  let db, store = durable_db dir in
  ignore (Store.checkpoint store db ~meta:[]);
  (* post-checkpoint tail *)
  Database.insert_rows db ~table:"a" [ [| Value.Int 100; Value.String "tail" |] ];
  let outcome = Recovery.recover ~data_dir:dir () in
  Alcotest.(check bool) "snapshot used" true (outcome.Recovery.snapshot_id <> None);
  Alcotest.(check int) "only the tail replayed" 1 outcome.Recovery.wal_applied;
  Alcotest.(check bool) "rows match" true
    (sorted_rows outcome.Recovery.db "a" = sorted_rows db "a")

let test_recovery_torn_tail_dropped () =
  let dir = fresh_dir "rec_torn" in
  let db, _store = durable_db dir in
  Database.insert_rows db ~table:"a" [ [| Value.Int 50; Value.String "kept" |] ];
  Database.insert_rows db ~table:"a" [ [| Value.Int 51; Value.String "torn off" |] ];
  (* crash mid-write of the final record *)
  let path = List.hd (List.rev (wal_files dir)) in
  Unix.truncate path ((Unix.stat path).Unix.st_size - 5);
  let outcome = Recovery.recover ~data_dir:dir () in
  Alcotest.(check bool) "torn" true (outcome.Recovery.wal_status <> Wal.Clean);
  Alcotest.(check (list string)) "replay itself clean" [] outcome.Recovery.errors;
  let t = Database.get_table outcome.Recovery.db "a" in
  Alcotest.(check bool) "last complete record survived" true
    (Table.find_pk t [ Value.Int 50 ] <> None);
  Alcotest.(check bool) "torn record dropped" true
    (Table.find_pk t [ Value.Int 51 ] = None)

let test_recovery_system_tables_excluded () =
  let dir = fresh_dir "rec_system" in
  Wal.mkdirs dir;
  let db = Database.create () in
  let store =
    Store.attach ~policy:Wal.Always
      ~is_system_table:(fun n -> n = "sys") ~data_dir:dir db
  in
  Database.create_table db
    (Schema.make ~name:"sys" ~columns:[ ("id", Schema.TInt) ] ~primary_key:[ "id" ] ());
  Database.create_table db
    (Schema.make ~name:"user" ~columns:[ ("id", Schema.TInt) ] ~primary_key:[ "id" ] ());
  Database.insert_rows db ~table:"sys" [ [| Value.Int 1 |] ];
  Database.insert_rows db ~table:"user" [ [| Value.Int 1 |] ];
  ignore (Store.checkpoint store db ~meta:[]);
  let outcome = Recovery.recover ~data_dir:dir () in
  Alcotest.(check bool) "system table not recovered" true
    (Database.find_table outcome.Recovery.db "sys" = None);
  Alcotest.(check bool) "user table recovered" true
    (Database.find_table outcome.Recovery.db "user" <> None)

let test_checkpoint_truncates_wal () =
  let dir = fresh_dir "rec_truncate" in
  let db, store = durable_db dir in
  let before = Wal.total_bytes dir in
  Alcotest.(check bool) "wal non-empty before checkpoint" true (before > 0);
  ignore (Store.checkpoint store db ~meta:[]);
  Alcotest.(check int) "wal empty after checkpoint" 0 (Wal.total_bytes dir);
  (* crash with *zero* WAL tail: snapshot alone must carry the state *)
  let outcome = Recovery.recover ~data_dir:dir () in
  Alcotest.(check bool) "rows restored from snapshot only" true
    (sorted_rows outcome.Recovery.db "a" = sorted_rows db "a")

(* --- runtime reopen: views + XML triggers re-armed --- *)

let product_schema () =
  Schema.make ~name:"product"
    ~columns:[ ("pid", Schema.TString); ("pname", Schema.TString) ]
    ~primary_key:[ "pid" ] ()

let tiny_view = {|<doc>{for $p in view("default")/product/row return <p name="{$p/pname}"><id>{$p/pid}</id></p>}</doc>|}

let test_reopen_rearms_triggers () =
  let dir = fresh_dir "reopen" in
  let fired = ref [] in
  let db = Database.create () in
  Database.create_table db (product_schema ());
  Database.insert_rows db ~table:"product"
    [ [| Value.String "P1"; Value.String "widget" |] ];
  let mgr = Trigview.Runtime.create db in
  Trigview.Runtime.define_view mgr ~name:"doc" tiny_view;
  Trigview.Runtime.register_action mgr ~name:"note" (fun fi ->
      fired := fi.Trigview.Runtime.fi_trigger :: !fired);
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER w AFTER UPDATE ON view('doc')/p WHERE NEW_NODE/@name = 'gadget' DO note(NEW_NODE)";
  Trigview.Runtime.durability_sync mgr;
  (* crash; recover into a fresh runtime with the action re-supplied *)
  let fired' = ref [] in
  let r =
    Trigview.Runtime.reopen
      ~actions:
        [ ("note", fun fi -> fired' := fi.Trigview.Runtime.fi_trigger :: !fired') ]
      ~data_dir:dir ()
  in
  Alcotest.(check (list string)) "no recovery errors" []
    (r.Trigview.Runtime.recovery.Recovery.errors @ r.Trigview.Runtime.rearm_errors);
  Alcotest.(check int) "view re-armed" 1 r.Trigview.Runtime.rearmed_views;
  Alcotest.(check int) "trigger re-armed" 1 r.Trigview.Runtime.rearmed_triggers;
  Alcotest.(check (list string)) "trigger listed" [ "w" ]
    (Trigview.Runtime.trigger_names r.Trigview.Runtime.runtime);
  (* the recovered trigger must actually fire on the next statement *)
  ignore
    (Database.update_pk
       (Trigview.Runtime.database r.Trigview.Runtime.runtime)
       ~table:"product" ~pk:[ Value.String "P1" ]
       ~set:(fun row -> [| row.(0); Value.String "gadget" |]));
  Alcotest.(check (list string)) "fired after recovery" [ "w" ] !fired'

let test_reopen_missing_action_reported () =
  let dir = fresh_dir "reopen_missing" in
  let db = Database.create () in
  Database.create_table db (product_schema ());
  let mgr = Trigview.Runtime.create db in
  Trigview.Runtime.define_view mgr ~name:"doc" tiny_view;
  Trigview.Runtime.register_action mgr ~name:"note" (fun _ -> ());
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER w AFTER UPDATE ON view('doc')/p DO note(NEW_NODE)";
  Trigview.Runtime.durability_sync mgr;
  (* reopen without re-supplying the action: recovery must survive and say so *)
  let r = Trigview.Runtime.reopen ~actions:[] ~data_dir:dir () in
  Alcotest.(check int) "trigger not re-armed" 0 r.Trigview.Runtime.rearmed_triggers;
  Alcotest.(check bool) "failure reported" true
    (r.Trigview.Runtime.rearm_errors <> [])

let test_drop_trigger_survives_reopen () =
  let dir = fresh_dir "reopen_drop" in
  let db = Database.create () in
  Database.create_table db (product_schema ());
  let mgr = Trigview.Runtime.create db in
  Trigview.Runtime.define_view mgr ~name:"doc" tiny_view;
  Trigview.Runtime.register_action mgr ~name:"note" (fun _ -> ());
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER keepme AFTER UPDATE ON view('doc')/p DO note(NEW_NODE)";
  Trigview.Runtime.create_trigger mgr
    "CREATE TRIGGER dropme AFTER UPDATE ON view('doc')/p DO note(NEW_NODE)";
  Trigview.Runtime.drop_trigger mgr "dropme";
  Trigview.Runtime.durability_sync mgr;
  let r =
    Trigview.Runtime.reopen ~actions:[ ("note", fun _ -> ()) ] ~data_dir:dir ()
  in
  Alcotest.(check (list string)) "only the surviving trigger" [ "keepme" ]
    (Trigview.Runtime.trigger_names r.Trigview.Runtime.runtime)

(* Checkpoint compaction: a drop cancels only the records before it, so
   create -> drop -> create of one name keeps exactly the re-created record,
   in creation order among the survivors. *)
let test_checkpoint_meta_recreate () =
  let dir = fresh_dir "meta_recreate" in
  let db = Database.create () in
  Database.create_table db (product_schema ());
  let mgr = Trigview.Runtime.create db in
  Trigview.Runtime.define_view mgr ~name:"doc" tiny_view;
  Trigview.Runtime.register_action mgr ~name:"note" (fun _ -> ());
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  let mk name ev =
    Printf.sprintf "CREATE TRIGGER %s AFTER %s ON view('doc')/p DO note(NEW_NODE)" name ev
  in
  Trigview.Runtime.create_trigger mgr (mk "t" "UPDATE");
  Trigview.Runtime.create_trigger mgr (mk "u" "UPDATE");
  Trigview.Runtime.drop_trigger mgr "t";
  Trigview.Runtime.create_trigger mgr (mk "t" "INSERT");
  Trigview.Runtime.checkpoint mgr;
  let r = Trigview.Runtime.reopen ~actions:[ ("note", fun _ -> ()) ] ~data_dir:dir () in
  Alcotest.(check (list (triple string string string)))
    "catalog after checkpoint"
    [ ("view", "doc", tiny_view);
      ("xmltrigger", "u", mk "u" "UPDATE");
      ("xmltrigger", "t", mk "t" "INSERT");
    ]
    r.Trigview.Runtime.recovery.Recovery.meta;
  Alcotest.(check (list string)) "both triggers re-armed, newest first" [ "t"; "u" ]
    (Trigview.Runtime.trigger_names r.Trigview.Runtime.runtime)

let () =
  Alcotest.run "durability"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest codec_roundtrip;
          QCheck_alcotest.to_alcotest codec_trailing_garbage_rejected;
          QCheck_alcotest.to_alcotest codec_truncation_rejected;
          Alcotest.test_case "crc32 test vector" `Quick test_crc32_known;
        ] );
      ( "wal fault injection",
        [ Alcotest.test_case "round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail mid-payload" `Quick test_wal_torn_tail;
          Alcotest.test_case "torn tail mid-header" `Quick test_wal_torn_header;
          Alcotest.test_case "bit flip rejected by checksum" `Quick test_wal_bit_flip;
          Alcotest.test_case "segment rotation" `Quick test_wal_rotation;
          Alcotest.test_case "crash between rotations" `Quick
            test_wal_crash_between_rotations;
        ] );
      ( "snapshots",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "system tables excluded" `Quick
            test_snapshot_excludes_system_tables;
          Alcotest.test_case "corrupt newest falls back" `Quick
            test_snapshot_corrupt_fallback;
        ] );
      ( "recovery",
        [ Alcotest.test_case "WAL-only replay" `Quick test_recovery_wal_only;
          Alcotest.test_case "snapshot + tail" `Quick test_recovery_snapshot_plus_tail;
          Alcotest.test_case "torn tail dropped, prefix kept" `Quick
            test_recovery_torn_tail_dropped;
          Alcotest.test_case "system tables excluded" `Quick
            test_recovery_system_tables_excluded;
          Alcotest.test_case "checkpoint truncates WAL" `Quick
            test_checkpoint_truncates_wal;
        ] );
      ( "runtime reopen",
        [ Alcotest.test_case "views + triggers re-armed and firing" `Quick
            test_reopen_rearms_triggers;
          Alcotest.test_case "missing action reported, not fatal" `Quick
            test_reopen_missing_action_reported;
          Alcotest.test_case "dropped trigger stays dropped" `Quick
            test_drop_trigger_survives_reopen;
          Alcotest.test_case "checkpoint keeps a re-created record" `Quick
            test_checkpoint_meta_recreate;
        ] );
    ]
