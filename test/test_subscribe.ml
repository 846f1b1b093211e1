(* The subscription & delivery subsystem: bounded queues (unit + qcheck
   invariants, and under cross-domain contention), notification rendering
   and coalescing keys, the hub over a live trigger runtime (callback and
   file sinks, coalescing windows, unsubscribe), and the Unix-domain-socket
   server end to end — framed delivery in statement order, ack-cursor
   redelivery after reconnect, and subscriptions surviving checkpoint +
   reopen. *)

module Squeue = Subscribe.Squeue
module Notification = Subscribe.Notification
module Server = Subscribe.Server

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- queue unit tests --- *)

let push q k v = Subscribe.Squeue.push q ~key:k v

let test_queue_fifo () =
  let q = Squeue.create ~capacity:8 () in
  List.iter (fun i -> ignore (push q (string_of_int i) i)) [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Squeue.depth q);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Squeue.flush q);
  Alcotest.(check int) "drained" 0 (Squeue.depth q);
  Alcotest.(check int) "delivered" 3 (Squeue.delivered q);
  Alcotest.(check (list int)) "second flush empty" [] (Squeue.flush q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_drop_oldest () =
  let q = Squeue.create ~capacity:3 ~overflow:Squeue.Drop_oldest () in
  List.iter (fun i -> ignore (push q (string_of_int i) i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Squeue.depth q);
  Alcotest.(check (list int)) "oldest evicted" [ 3; 4; 5 ] (Squeue.flush q);
  Alcotest.(check int) "dropped" 2 (Squeue.dropped q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_drop_newest () =
  let q = Squeue.create ~capacity:3 ~overflow:Squeue.Drop_newest () in
  let results = List.map (fun i -> push q (string_of_int i) i) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "newest rejected" [ 1; 2; 3 ] (Squeue.flush q);
  Alcotest.(check bool) "push reported drop" true
    (List.nth results 3 = Squeue.Dropped && List.nth results 4 = Squeue.Dropped);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_disconnect () =
  let q = Squeue.create ~capacity:2 ~overflow:Squeue.Disconnect () in
  ignore (push q "a" 1);
  ignore (push q "b" 2);
  Alcotest.(check bool) "overflow disconnects" true (push q "c" 3 = Squeue.Disconnected);
  Alcotest.(check bool) "flag set" true (Squeue.disconnected q);
  Alcotest.(check int) "pending discarded with the subscriber" 0 (Squeue.depth q);
  Alcotest.(check bool) "pushes rejected while disconnected" true
    (push q "d" 4 = Squeue.Disconnected);
  Alcotest.(check int) "all 4 accounted as dropped" 4 (Squeue.dropped q);
  Squeue.reconnect q;
  Alcotest.(check bool) "accepts again after reconnect" true (push q "e" 5 = Squeue.Enqueued);
  Alcotest.(check (list int)) "delivers after reconnect" [ 5 ] (Squeue.flush q);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

let test_queue_coalesce () =
  let q = Squeue.create ~capacity:8 ~coalesce:true () in
  Alcotest.(check bool) "first is enqueued" true (push q "a" 1 = Squeue.Enqueued);
  ignore (push q "b" 2);
  Alcotest.(check bool) "same key coalesces" true (push q "a" 3 = Squeue.Coalesced);
  (* the coalesced key keeps its original (first-arrival) position but
     carries the latest payload *)
  Alcotest.(check (list int)) "in-place replacement" [ 3; 2 ] (Squeue.flush q);
  Alcotest.(check int) "coalesced counted" 1 (Squeue.coalesced q);
  (* coalescing is scoped to the flush window: after a flush the key is new *)
  Alcotest.(check bool) "window reset" true (push q "a" 4 = Squeue.Enqueued);
  Alcotest.(check bool) "invariant" true (Squeue.invariant_holds q)

(* --- qcheck: queue invariants under arbitrary workloads --- *)

type qop = Push of int * int | Flush  (* Push (key, payload) *)

let qop_gen =
  QCheck.Gen.(
    frequency
      [ (8, map2 (fun k v -> Push (k, v)) (int_bound 5) (int_bound 1000));
        (1, return Flush);
      ])

let qops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Push (k, v) -> Printf.sprintf "p%d=%d" k v | Flush -> "f")
           ops))
    QCheck.Gen.(list_size (int_bound 200) qop_gen)

let params_arb =
  QCheck.make
    QCheck.Gen.(
      triple (1 -- 16) (int_bound 2) bool (* capacity, overflow, coalesce *))

let overflow_of_int = function
  | 0 -> Squeue.Drop_oldest
  | 1 -> Squeue.Drop_newest
  | _ -> Squeue.Disconnect

let qcheck_accounting =
  QCheck.Test.make ~name:"queue accounting invariant" ~count:300
    (QCheck.pair params_arb qops_arb)
    (fun ((cap, ovf, coal), ops) ->
      let q = Squeue.create ~capacity:cap ~overflow:(overflow_of_int ovf) ~coalesce:coal () in
      List.iter
        (function
          | Push (k, v) -> ignore (push q (string_of_int k) v)
          | Flush -> ignore (Squeue.flush q))
        ops;
      ignore (Squeue.flush q);
      Squeue.invariant_holds q
      && Squeue.enqueued q
         = Squeue.delivered q + Squeue.dropped q + Squeue.coalesced q)

let qcheck_bounded_depth =
  QCheck.Test.make ~name:"queue depth never exceeds capacity" ~count:300
    (QCheck.pair params_arb qops_arb)
    (fun ((cap, ovf, coal), ops) ->
      let q = Squeue.create ~capacity:cap ~overflow:(overflow_of_int ovf) ~coalesce:coal () in
      List.for_all
        (function
          | Push (k, v) ->
            ignore (push q (string_of_int k) v);
            Squeue.depth q <= cap
          | Flush ->
            ignore (Squeue.flush q);
            Squeue.depth q = 0)
        ops)

(* Under coalescing with no overflow pressure: each key appears at most once
   per flush, carries the key's last-pushed payload, and keys leave in
   first-arrival order. *)
let qcheck_coalesce_order =
  QCheck.Test.make ~name:"per-key coalescing: last payload, first-arrival order"
    ~count:300 qops_arb (fun ops ->
      let q = Squeue.create ~capacity:2048 ~coalesce:true () in
      (* payload = (key, value) so the flushed items identify their keys *)
      let expect_order = ref [] (* first-arrival order, reversed *) in
      let expect_last = Hashtbl.create 8 in
      let check_flush () =
        let out = Squeue.flush q in
        let expected =
          List.rev_map (fun k -> (k, Hashtbl.find expect_last k)) !expect_order
        in
        expect_order := [];
        Hashtbl.reset expect_last;
        out = expected
      in
      List.for_all
        (function
          | Push (k, v) ->
            ignore (push q (string_of_int k) (k, v));
            if not (Hashtbl.mem expect_last k) then expect_order := k :: !expect_order;
            Hashtbl.replace expect_last k v;
            true
          | Flush -> check_flush ())
        ops
      && check_flush ())

(* --- squeue under contention --- *)

let test_squeue_contention () =
  let q = Squeue.create ~capacity:64 ~overflow:Squeue.Drop_oldest ~coalesce:true () in
  let producers = 4 and per = 2_000 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Squeue.push q ~key:(Printf.sprintf "k%d" (i mod 8)) ((p * per) + i))
            done))
  in
  (* race a consumer against the producers; the invariant must hold on
     every snapshot taken mid-flight *)
  let drained = ref 0 in
  for _ = 1 to 200 do
    drained := !drained + List.length (Squeue.flush q);
    if not (Squeue.invariant_holds q) then
      Alcotest.fail "conservation invariant violated under contention"
  done;
  List.iter Domain.join doms;
  drained := !drained + List.length (Squeue.flush q);
  Alcotest.(check bool) "invariant at quiescence" true (Squeue.invariant_holds q);
  Alcotest.(check int) "every push accounted" (producers * per) (Squeue.enqueued q);
  Alcotest.(check int) "conservation: enqueued = delivered + dropped + coalesced"
    (producers * per)
    (Squeue.delivered q + Squeue.dropped q + Squeue.coalesced q + Squeue.depth q);
  Alcotest.(check int) "drained items = delivered counter" (Squeue.delivered q) !drained;
  Alcotest.(check int) "nothing pending after final flush" 0 (Squeue.depth q)

let test_squeue_drop_newest_contention () =
  let q = Squeue.create ~capacity:16 ~overflow:Squeue.Drop_newest () in
  let doms =
    List.init 3 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              ignore (Squeue.push q ~key:"" ((p * 1000) + i))
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check bool) "invariant after racing producers" true (Squeue.invariant_holds q);
  Alcotest.(check int) "all pushes counted" 3_000 (Squeue.enqueued q);
  Alcotest.(check int) "ring never overfilled" 16 (Squeue.depth q)

(* --- notifications --- *)

let elem tag attrs children = Xmlkit.Xml.Element { tag; attrs; children }

let test_notification_ndjson () =
  let n =
    Notification.make ~subscription:"feed" ~seq:3 ~stmt_id:17 ~event:"UPDATE"
      ~trigger:"sub$feed"
      ~old_xml:(Some (elem "p" [ ("name", "a\"b") ] [ Xmlkit.Xml.Text "1" ]))
      ~new_xml:None
  in
  Alcotest.(check string) "ndjson"
    "{\"subscription\": \"feed\", \"seq\": 3, \"stmt\": 17, \"event\": \
     \"UPDATE\", \"trigger\": \"sub$feed\", \"old\": \
     \"<p name=\\\"a&quot;b\\\">1</p>\", \"new\": null}"
    (Notification.to_ndjson n)

let test_notification_key () =
  let mk ?old_xml ?new_xml seq =
    Notification.make ~subscription:"s" ~seq ~stmt_id:0 ~event:"UPDATE"
      ~trigger:"t" ~old_xml ~new_xml
  in
  let a1 = mk ~new_xml:(elem "p" [ ("name", "x") ] [ Xmlkit.Xml.Text "1" ]) 1 in
  let a2 = mk ~new_xml:(elem "p" [ ("name", "x") ] [ Xmlkit.Xml.Text "2" ]) 2 in
  let b = mk ~new_xml:(elem "p" [ ("name", "y") ] []) 3 in
  Alcotest.(check bool) "same node, different content: same key" true
    (Notification.key a1 = Notification.key a2);
  Alcotest.(check bool) "different node: different key" false
    (Notification.key a1 = Notification.key b);
  (* DELETE has only OLD_NODE; it must still coalesce with the same node *)
  let d = mk ~old_xml:(elem "p" [ ("name", "x") ] []) 4 in
  Alcotest.(check bool) "old-node key matches new-node key" true
    (Notification.key a1 = Notification.key d)

(* --- the hub over a live runtime --- *)

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

let setup_hub ?(strategy = Trigview.Runtime.Grouped_agg) () =
  let db = Fixtures.mk_db () in
  let mgr = Trigview.Runtime.create ~strategy db in
  Trigview.Runtime.define_view mgr ~name:"catalog" catalog_text;
  let hub = Subscribe.attach mgr in
  (db, mgr, hub)

let crt_sub = "crt AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'CRT 15'"

let test_hub_callback_delivery () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub crt_sub;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "queued, not yet delivered" 0 (List.length !got);
  Alcotest.(check int) "flush delivers one" 1 (Subscribe.flush hub);
  (match !got with
  | [ n ] ->
    let line = Notification.to_ndjson n in
    Alcotest.(check bool) "names its subscription" true
      (String.length line > 0
      && contains line "\"subscription\": \"crt\"")
  | _ -> Alcotest.fail "expected exactly one notification");
  (* an LCD 19 update does not match the WHERE *)
  Fixtures.update_vendor_price db ~vid:"Buy.com" ~pid:"P2" ~price:75.0;
  Alcotest.(check int) "condition filters" 0 (Subscribe.flush hub)

let test_hub_statement_order_and_stmt_ids () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub (crt_sub ^ " COALESCE off");
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:77.0;
  Alcotest.(check int) "three delivered" 3 (Subscribe.flush hub);
  let seqs = List.rev_map (fun n -> n.Notification.seq) !got in
  let stmts = List.rev_map (fun n -> n.Notification.stmt_id) !got in
  Alcotest.(check (list int)) "seqs in statement order" [ 1; 2; 3 ] seqs;
  Alcotest.(check bool) "stmt ids strictly increasing" true
    (match stmts with
    | [ a; b; c ] -> a < b && b < c
    | _ -> false)

let test_hub_coalescing_window () =
  let db, _mgr, hub = setup_hub () in
  let got = ref [] in
  Subscribe.add_callback hub (fun n -> got := n :: !got);
  Subscribe.subscribe hub (crt_sub ^ " COALESCE on");
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:77.0;
  (* three firings for the same view node inside one window: one delivery,
     carrying the latest state *)
  Alcotest.(check int) "coalesced to one" 1 (Subscribe.flush hub);
  (match !got with
  | [ n ] ->
    let doc = Xmlkit.Xml_parse.parse (Notification.to_ndjson n |> fun _ ->
      match n.Notification.new_xml with
      | Some x -> Xmlkit.Xml.to_string ~canonical:true x
      | None -> "<none/>")
    in
    Alcotest.(check (list string)) "latest price wins" [ "77.0" ]
      (Xmlkit.Xpath.select_strings doc "/vendor[vid='Amazon']/price")
  | _ -> Alcotest.fail "expected one coalesced notification");
  (* the next window starts fresh *)
  got := [];
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:78.0;
  Alcotest.(check int) "next window delivers" 1 (Subscribe.flush hub)

let test_hub_unsubscribe_stops_delivery () =
  let db, mgr, hub = setup_hub () in
  Subscribe.subscribe hub crt_sub;
  let sql_before = Trigview.Runtime.sql_trigger_count mgr in
  Alcotest.(check bool) "SQL triggers armed" true (sql_before > 0);
  Subscribe.unsubscribe hub "crt";
  Alcotest.(check int) "SQL triggers dropped" 0 (Trigview.Runtime.sql_trigger_count mgr);
  Alcotest.(check (list string)) "registry empty" [] (Subscribe.subscription_names hub);
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "nothing delivered" 0 (Subscribe.flush hub)

let test_hub_ddl_errors () =
  let _db, _mgr, hub = setup_hub () in
  let expect_error text =
    match Subscribe.subscribe hub text with
    | () -> Alcotest.failf "expected rejection of %S" text
    | exception Subscribe.Error _ -> ()
  in
  expect_error "no keywords here";
  expect_error "bad name! AFTER UPDATE ON view('catalog')/product";
  expect_error "f AFTER SHRUG ON view('catalog')/product";
  expect_error "f AFTER UPDATE ON view('catalog')/product QUEUE -3";
  expect_error "f AFTER UPDATE ON view('catalog')/product OVERFLOW sideways";
  Subscribe.subscribe hub crt_sub;
  expect_error crt_sub (* duplicate name *)

let test_hub_file_sink () =
  let db, _mgr, hub = setup_hub () in
  let path = Filename.temp_file "trigview_sub" ".ndjson" in
  Subscribe.add_file hub ~path;
  Subscribe.subscribe hub crt_sub;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Alcotest.(check int) "two delivered" 2 (Subscribe.flush hub);
  Subscribe.close_sinks hub;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "two NDJSON lines" 2 (List.length !lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    !lines

(* [start_writer] / [drain_writer] are no-ops: delivery happens inside
   [flush] whether or not they are called, so a hub that calls them emits
   exactly the NDJSON line sequence of one that never does. *)
let test_hub_writer_calls_keep_flush_synchronous () =
  let run ~writer_calls =
    let db, _mgr, hub = setup_hub () in
    let lines = ref [] in
    Subscribe.add_callback hub (fun n -> lines := Notification.to_ndjson n :: !lines);
    if writer_calls then Subscribe.start_writer hub;
    Subscribe.subscribe hub (crt_sub ^ " COALESCE off");
    Subscribe.subscribe hub "all AFTER UPDATE ON view('catalog')/product";
    List.iter
      (fun price ->
        Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price;
        let before = List.length !lines in
        let n = Subscribe.flush hub in
        Alcotest.(check int) "callback saw every notification when flush returned" n
          (List.length !lines - before);
        if writer_calls then Subscribe.drain_writer hub)
      [ 75.0; 76.0; 77.0 ];
    List.rev !lines
  in
  let plain = run ~writer_calls:false in
  Alcotest.(check int) "two subscriptions x three writes" 6 (List.length plain);
  Alcotest.(check (list string)) "same NDJSON line sequence" plain
    (run ~writer_calls:true)

let test_hub_writer_lifecycle () =
  let db, _mgr, hub = setup_hub () in
  Subscribe.start_writer hub;
  Subscribe.start_writer hub;
  Subscribe.drain_writer hub;
  Subscribe.drain_writer hub;
  Subscribe.subscribe hub crt_sub;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Alcotest.(check int) "flush still delivers" 1 (Subscribe.flush hub)

(* --- socket server end to end --- *)

let sock_counter = ref 0

let fresh_socket_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "trigview_sub_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let connect_client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

let send_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  ignore (Unix.write fd b 0 (Bytes.length b))

(* Pump the server and drain this client's socket until [want] frames have
   arrived (or ~1s passes). *)
let recv_frames server fd ~want =
  let buf = Buffer.create 1024 in
  let frames = ref [] in
  let parse () =
    let continue = ref true in
    while !continue do
      let data = Buffer.contents buf in
      let n = String.length data in
      if n < 4 then continue := false
      else
        let len =
          (Char.code data.[0] lsl 24)
          lor (Char.code data.[1] lsl 16)
          lor (Char.code data.[2] lsl 8)
          lor Char.code data.[3]
        in
        if n < 4 + len then continue := false
        else begin
          frames := String.sub data 4 len :: !frames;
          Buffer.clear buf;
          Buffer.add_string buf (String.sub data (4 + len) (n - 4 - len))
        end
    done
  in
  let tries = ref 200 in
  let chunk = Bytes.create 65536 in
  while List.length !frames < want && !tries > 0 do
    decr tries;
    ignore (Server.step ~timeout_ms:5 server);
    (match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> tries := 0 (* EOF *)
    | n -> Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    parse ()
  done;
  List.rev !frames

let gseq_of frame =
  (* frames look like {"gseq": N, "payload": ...} *)
  try Scanf.sscanf frame "{\"gseq\": %d," (fun g -> g) with _ -> -1

let test_socket_end_to_end () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_sub_e2e_%d" (Unix.getpid ()))
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
  let sock = fresh_socket_path () in
  let db, mgr, hub = setup_hub () in
  Trigview.Runtime.attach_durability mgr ~data_dir:dir;
  let server = Server.create ~path:sock () in
  Subscribe.add_server hub server;
  Subscribe.subscribe hub (crt_sub ^ " COALESCE off");

  (* client connects and sends its hello cursor (fresh: 0) *)
  let fd = connect_client sock in
  send_frame fd "{\"ack\": 0}";
  ignore (Server.step ~timeout_ms:10 server);

  (* DML on base tables -> framed notifications in statement order *)
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:75.0;
  Fixtures.update_vendor_price db ~vid:"Amazon" ~pid:"P1" ~price:76.0;
  Alcotest.(check int) "two delivered to server" 2 (Subscribe.flush hub);
  let frames = recv_frames server fd ~want:2 in
  Alcotest.(check int) "two frames" 2 (List.length frames);
  Alcotest.(check (list int)) "gseq order" [ 1; 2 ] (List.map gseq_of frames);
  Alcotest.(check bool) "payload carries seq 1 then 2" true
    (match frames with
    | [ a; b ] ->
      contains a "\"seq\": 1" && contains b "\"seq\": 2"
    | _ -> false);

  (* client acks only the first frame, then drops the connection *)
  send_frame fd "{\"ack\": 1}";
  ignore (Server.step ~timeout_ms:10 server);
  Unix.close fd;
  ignore (Server.step ~timeout_ms:10 server);

  (* subscriptions survive checkpoint + reopen *)
  Trigview.Runtime.checkpoint mgr;
  Subscribe.subscribe hub "lcd AFTER UPDATE ON view('catalog')/product WHERE NEW_NODE/@name = 'LCD 19'";
  Subscribe.unsubscribe hub "lcd";  (* the drop must survive replay too *)
  Trigview.Runtime.durability_sync mgr;
  let r = Trigview.Runtime.reopen ~data_dir:dir () in
  let mgr2 = r.Trigview.Runtime.runtime in
  let hub2 = Subscribe.attach mgr2 in
  let errs =
    Subscribe.rearm hub2 ~meta:r.Trigview.Runtime.recovery.Durability.Recovery.meta
  in
  Alcotest.(check (list string)) "rearm clean" [] errs;
  Alcotest.(check (list string)) "crt survived, lcd did not" [ "crt" ]
    (Subscribe.subscription_names hub2);
  Alcotest.(check bool) "trigger re-armed" true
    (List.mem "sub$crt" (Trigview.Runtime.trigger_names mgr2));

  (* a fresh server on the reopened runtime; the reconnecting client resumes
     from its ack cursor: it re-receives frame 2 (unacked), not frame 1 *)
  Server.stop server;
  let server2 = Server.create ~path:sock () in
  Subscribe.add_server hub2 server2;
  (* live traffic against the recovered runtime *)
  Fixtures.update_vendor_price (Trigview.Runtime.database mgr2) ~vid:"Amazon"
    ~pid:"P1" ~price:77.0;
  Alcotest.(check int) "recovered feed fires" 1 (Subscribe.flush hub2);
  let fd2 = connect_client sock in
  send_frame fd2 "{\"ack\": 0}";
  let frames2 = recv_frames server2 fd2 ~want:1 in
  Alcotest.(check int) "replay after reconnect" 1 (List.length frames2);
  Alcotest.(check bool) "recovered notification has seq 1 (fresh hub state)" true
    (contains (List.hd frames2) "\"seq\": 1");
  Unix.close fd2;
  Server.stop server2;
  rm_rf dir

let test_socket_ack_cursor_redelivery () =
  let sock = fresh_socket_path () in
  let server = Server.create ~path:sock () in
  (* publish three notifications with no client connected *)
  Server.publish server "{\"n\": 1}";
  Server.publish server "{\"n\": 2}";
  Server.publish server "{\"n\": 3}";
  (* a client that has consumed up to gseq 1 reconnects: it must get 2 and 3 *)
  let fd = connect_client sock in
  send_frame fd "{\"ack\": 1}";
  let frames = recv_frames server fd ~want:2 in
  Alcotest.(check (list int)) "redelivered above the cursor" [ 2; 3 ]
    (List.map gseq_of frames);
  (* acking 3 and reconnecting again yields nothing new *)
  send_frame fd "{\"ack\": 3}";
  ignore (Server.step ~timeout_ms:10 server);
  Unix.close fd;
  let fd2 = connect_client sock in
  send_frame fd2 "{\"ack\": 3}";
  let frames2 = recv_frames server fd2 ~want:1 in
  Alcotest.(check int) "nothing to redeliver" 0 (List.length frames2);
  Unix.close fd2;
  Server.stop server

let test_socket_multiple_clients () =
  let sock = fresh_socket_path () in
  let server = Server.create ~path:sock () in
  let a = connect_client sock in
  let b = connect_client sock in
  send_frame a "{\"ack\": 0}";
  send_frame b "{\"ack\": 0}";
  ignore (Server.step ~timeout_ms:10 server);
  ignore (Server.step ~timeout_ms:10 server);
  Alcotest.(check int) "both connected" 2 (Server.client_count server);
  Server.publish server "{\"n\": 1}";
  let fa = recv_frames server a ~want:1 in
  let fb = recv_frames server b ~want:1 in
  Alcotest.(check int) "client a got it" 1 (List.length fa);
  Alcotest.(check int) "client b got it" 1 (List.length fb);
  Unix.close a;
  Unix.close b;
  Server.stop server

let test_socket_gap_marker () =
  let sock = fresh_socket_path () in
  (* retention of 2: a client behind by more must see a gap marker *)
  let server = Server.create ~retain:2 ~path:sock () in
  List.iter (fun i -> Server.publish server (Printf.sprintf "{\"n\": %d}" i)) [ 1; 2; 3; 4 ];
  let fd = connect_client sock in
  send_frame fd "{\"ack\": 0}";
  let frames = recv_frames server fd ~want:3 in
  (match frames with
  | gap :: rest ->
    Alcotest.(check bool) "gap marker first" true
      (contains gap "\"gap\": true" && contains gap "\"oldest\": 3");
    Alcotest.(check (list int)) "then the retained tail" [ 3; 4 ] (List.map gseq_of rest)
  | [] -> Alcotest.fail "expected frames");
  Unix.close fd;
  Server.stop server

let test_socket_ack_by_value () =
  (* the ack is the non-negative integer after "ack": — not the first
     digits anywhere in the frame *)
  List.iter
    (fun (frame, want) ->
      Alcotest.(check (option int)) frame want (Server.parse_ack frame))
    [ ("{\"ack\": 5}", Some 5);
      ("{\"ack\":12}", Some 12);
      ("{ \"ack\" : 0 }", Some 0);
      ("{\"v\": 7, \"ack\": 1}", Some 1);
      ("{\"ack\": -3}", None);
      ("{\"ack\": 1.5}", None);
      ("{\"ack\": \"4\"}", None);
      ("{\"note\": \"ack\", \"n\": 9}", None);
      ("{\"n\": 9}", None);
    ];
  (* a hello naming cursor 1 beside another number replays 2..7 *)
  let sock = fresh_socket_path () in
  let server = Server.create ~path:sock () in
  for i = 1 to 7 do
    Server.publish server (Printf.sprintf "{\"n\": %d}" i)
  done;
  let fd = connect_client sock in
  send_frame fd "{\"ack\": -3}";  (* ignored: not a hello *)
  send_frame fd "{\"v\": 7, \"ack\": 1}";
  let frames = recv_frames server fd ~want:6 in
  Alcotest.(check (list int)) "replayed above the acked cursor" [ 2; 3; 4; 5; 6; 7 ]
    (List.map gseq_of frames);
  Unix.close fd;
  Server.stop server

let () =
  Alcotest.run "subscribe"
    [ ( "queue",
        [ Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drop-oldest" `Quick test_queue_drop_oldest;
          Alcotest.test_case "drop-newest" `Quick test_queue_drop_newest;
          Alcotest.test_case "disconnect" `Quick test_queue_disconnect;
          Alcotest.test_case "coalesce" `Quick test_queue_coalesce;
          QCheck_alcotest.to_alcotest qcheck_accounting;
          QCheck_alcotest.to_alcotest qcheck_bounded_depth;
          QCheck_alcotest.to_alcotest qcheck_coalesce_order;
        ] );
      ( "notification",
        [ Alcotest.test_case "ndjson" `Quick test_notification_ndjson;
          Alcotest.test_case "coalescing key" `Quick test_notification_key;
        ] );
      ( "hub",
        [ Alcotest.test_case "callback delivery" `Quick test_hub_callback_delivery;
          Alcotest.test_case "statement order + stmt ids" `Quick
            test_hub_statement_order_and_stmt_ids;
          Alcotest.test_case "coalescing window" `Quick test_hub_coalescing_window;
          Alcotest.test_case "unsubscribe" `Quick test_hub_unsubscribe_stops_delivery;
          Alcotest.test_case "DDL errors" `Quick test_hub_ddl_errors;
          Alcotest.test_case "file sink" `Quick test_hub_file_sink;
          Alcotest.test_case "writer calls keep flush synchronous" `Quick
            test_hub_writer_calls_keep_flush_synchronous;
          Alcotest.test_case "writer lifecycle idempotent" `Quick
            test_hub_writer_lifecycle;
        ] );
      ( "squeue",
        [ Alcotest.test_case "conservation under contention" `Quick test_squeue_contention;
          Alcotest.test_case "drop-newest under contention" `Quick
            test_squeue_drop_newest_contention;
        ] );
      ( "socket",
        [ Alcotest.test_case "end to end (durable)" `Quick test_socket_end_to_end;
          Alcotest.test_case "ack-cursor redelivery" `Quick
            test_socket_ack_cursor_redelivery;
          Alcotest.test_case "multiple clients" `Quick test_socket_multiple_clients;
          Alcotest.test_case "gap marker" `Quick test_socket_gap_marker;
          Alcotest.test_case "ack parsed by value" `Quick test_socket_ack_by_value;
        ] );
    ]
