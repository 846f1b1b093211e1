(* The subscription hub: pub/sub delivery layered on the trigger runtime.

   A subscription is declared in DDL:

     SUBSCRIBE name AFTER event ON path [WHERE cond]
               [QUEUE n] [OVERFLOW drop-oldest|drop-newest|disconnect]
               [COALESCE on|off]

   and is implemented as an XML trigger over the published view:

     CREATE TRIGGER sub$name AFTER event ON path [WHERE cond]
       DO sub$notify('name', OLD_NODE, NEW_NODE)

   The literal first argument routes the firing back to its subscription —
   this is what makes one shared action function (and therefore, under
   GROUPED, one shared plan set) serve any number of subscribers: the
   subscription name is member state, not plan structure, exactly like the
   constants table of §5.1.

   Firings append {!Notification.t} records to the subscription's bounded
   {!Squeue}; [flush] drains every queue to the attached sinks (in-process
   callback, NDJSON file, {!Server} socket).  The period between two
   flushes is the coalescing window.

   Durability: the SUBSCRIBE DDL itself is logged (kind ["subscription"])
   while the generated trigger is *not* — after a crash, {!rearm} replays
   the subscription records from recovery meta and re-creates the triggers,
   so feeds come back armed without double-arming. *)

module Squeue = Squeue
module Replay = Replay
module Conn = Conn
module Notification = Notification
module Server = Server
module Runtime = Trigview.Runtime
module Database = Relkit.Database

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type sink =
  | Callback of (Notification.t -> unit)
  | File of { path : string; oc : out_channel }
  | Socket of Server.t

type sub = {
  sb_name : string;
  sb_ddl : string;  (* the original SUBSCRIBE text, re-armed verbatim *)
  sb_event : Database.event;
  sb_path : string;
  sb_where : string option;
  sb_queue : Notification.t Squeue.t;
  sb_metric : string;  (* precomputed "deliver:<name>" histogram label *)
  mutable sb_seq : int;  (* per-subscription notification sequence *)
}

type t = {
  mgr : Runtime.t;
  mutable subs : (string * sub) list;  (* newest first *)
  mutable ordered : (string * sub) list;  (* creation order; flush path *)
  by_name : (string, sub) Hashtbl.t;  (* firing-path lookup *)
  mutable sinks : sink list;
  registry : Obs.Metrics.registry;  (* per-subscription delivery latency *)
  mutable flushes : int;
  mutable notifications_delivered : int;
}

let action_name = "sub$notify"
let trigger_name name = "sub$" ^ name

let find_sub t name = Hashtbl.find_opt t.by_name name

(* --- the shared action: firing -> notification -> queue --- *)

let on_fire t (fi : Runtime.firing) =
  match fi.Runtime.fi_args with
  | Xqgm.Xval.Atom (Relkit.Value.String name) :: _ -> (
    match find_sub t name with
    | None -> ()  (* trigger outlived its subscription: stale firing, drop *)
    | Some sub ->
      sub.sb_seq <- sub.sb_seq + 1;
      let n =
        Notification.make ~subscription:name ~seq:sub.sb_seq
          ~stmt_id:fi.Runtime.fi_stmt_id
          ~event:(Database.string_of_event fi.Runtime.fi_event)
          ~trigger:fi.Runtime.fi_trigger ~old_xml:fi.Runtime.fi_old
          ~new_xml:fi.Runtime.fi_new
      in
      (* the key only matters for coalescing; skip building it otherwise *)
      let key =
        if Squeue.coalescing sub.sb_queue then Notification.key n else ""
      in
      let result = Squeue.push sub.sb_queue ~key n in
      if fi.Runtime.fi_audit_id > 0 then
        Obs.Audit.annotate
          (Database.audit (Runtime.database t.mgr))
          ~firing_id:fi.Runtime.fi_audit_id
          (Printf.sprintf "subscription %S: seq %d %s (depth %d)" name
             sub.sb_seq
             (match result with
             | Squeue.Enqueued -> "enqueued"
             | Squeue.Coalesced -> "coalesced"
             | Squeue.Dropped -> "dropped (overflow)"
             | Squeue.Disconnected -> "dropped (subscriber disconnected)")
             (Squeue.depth sub.sb_queue)))
  | _ -> ()  (* not a subscription-shaped firing *)

let attach mgr =
  let t =
    { mgr;
      subs = [];
      ordered = [];
      by_name = Hashtbl.create 16;
      sinks = [];
      registry = Obs.Metrics.create_registry ();
      flushes = 0;
      notifications_delivered = 0;
    }
  in
  Runtime.register_action mgr ~name:action_name (fun fi -> on_fire t fi);
  t

(* --- SUBSCRIBE DDL parsing --- *)

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       name

type parsed = {
  p_name : string;
  p_event : Database.event;
  p_path : string;
  p_where : string option;
  p_capacity : int;
  p_overflow : Squeue.overflow;
  p_coalesce : bool;
}

let parse_ddl text =
  let kw k ~from = Trigview.Trigger.find_keyword text k ~from in
  let must k ~from =
    match kw k ~from with
    | Some i -> i
    | None -> fail "expected %s in subscription definition" k
  in
  let slice a b = String.trim (String.sub text a (b - a)) in
  let len = String.length text in
  let start =
    match kw "SUBSCRIBE" ~from:0 with Some i -> i + 9 | None -> 0
  in
  let after_i = must "AFTER" ~from:start in
  let on_i = must "ON" ~from:after_i in
  let name = slice start after_i in
  if not (valid_name name) then
    fail "malformed subscription name %S (use letters, digits, _ - .)" name;
  let event =
    match String.uppercase_ascii (slice (after_i + 5) on_i) with
    | "UPDATE" -> Database.Update
    | "INSERT" -> Database.Insert
    | "DELETE" -> Database.Delete
    | s -> fail "unknown event %S (expected UPDATE, INSERT or DELETE)" s
  in
  let where_i = kw "WHERE" ~from:on_i in
  let queue_i = kw "QUEUE" ~from:on_i in
  let overflow_i = kw "OVERFLOW" ~from:on_i in
  let coalesce_i = kw "COALESCE" ~from:on_i in
  let opts = List.filter_map Fun.id [ queue_i; overflow_i; coalesce_i ] in
  let end_of from = List.fold_left min len (List.filter (fun i -> i > from) opts) in
  let path_end =
    match where_i with Some w -> w | None -> end_of on_i
  in
  let p_path = slice (on_i + 2) path_end in
  if p_path = "" then fail "missing subscription path";
  let p_where =
    match where_i with
    | Some w ->
      let c = slice (w + 5) (end_of w) in
      if c = "" then fail "empty WHERE condition" else Some c
    | None -> None
  in
  (* option clauses take one word each *)
  let word_after i skip =
    let rest = String.sub text (i + skip) (len - i - skip) in
    match String.split_on_char ' ' (String.trim rest) with
    | w :: _ when w <> "" -> w
    | _ -> fail "missing value after option at offset %d" i
  in
  let p_capacity =
    match queue_i with
    | None -> 1024
    | Some i -> (
      match int_of_string_opt (word_after i 5) with
      | Some n when n > 0 -> n
      | _ -> fail "QUEUE expects a positive integer capacity")
  in
  let p_overflow =
    match overflow_i with
    | None -> Squeue.Drop_oldest
    | Some i -> (
      let w = String.lowercase_ascii (word_after i 8) in
      match Squeue.overflow_of_string w with
      | Some p -> p
      | None -> fail "unknown OVERFLOW policy %S (drop-oldest, drop-newest, disconnect)" w)
  in
  let p_coalesce =
    match coalesce_i with
    | None -> false
    | Some i -> (
      match String.lowercase_ascii (word_after i 8) with
      | "on" | "true" -> true
      | "off" | "false" -> false
      | w -> fail "COALESCE expects on or off, not %S" w)
  in
  { p_name = name; p_event = event; p_path; p_where; p_capacity; p_overflow; p_coalesce }

let trigger_text (p : parsed) =
  let args =
    match p.p_event with
    | Database.Insert -> Printf.sprintf "'%s', NEW_NODE" p.p_name
    | Database.Delete -> Printf.sprintf "'%s', OLD_NODE" p.p_name
    | Database.Update -> Printf.sprintf "'%s', OLD_NODE, NEW_NODE" p.p_name
  in
  Printf.sprintf "CREATE TRIGGER %s AFTER %s ON %s%s DO %s(%s)"
    (trigger_name p.p_name)
    (Database.string_of_event p.p_event)
    p.p_path
    (match p.p_where with Some c -> " WHERE " ^ c | None -> "")
    action_name args

(* --- lifecycle --- *)

(* [log] is off while re-arming from recovery meta would re-log records the
   WAL already holds... no: re-arming *must* re-log, because the runtime the
   records are replayed into starts with an empty DDL log (see [rearm]).
   The flag exists for callers embedding the hub without durability
   semantics; the CLI and tests always log. *)
let subscribe_internal ?(log = true) t ddl =
  let p = parse_ddl ddl in
  if find_sub t p.p_name <> None then fail "subscription %S already exists" p.p_name;
  (match Runtime.create_trigger ~log:false t.mgr (trigger_text p) with
  | () -> ()
  | exception Runtime.Error msg -> fail "cannot arm subscription %S: %s" p.p_name msg);
  let sub =
    { sb_name = p.p_name;
      sb_ddl = ddl;
      sb_event = p.p_event;
      sb_path = p.p_path;
      sb_where = p.p_where;
      sb_queue =
        Squeue.create ~capacity:p.p_capacity ~overflow:p.p_overflow
          ~coalesce:p.p_coalesce ();
      sb_metric = "deliver:" ^ p.p_name;
      sb_seq = 0;
    }
  in
  t.subs <- (p.p_name, sub) :: t.subs;
  t.ordered <- List.rev t.subs;
  Hashtbl.replace t.by_name p.p_name sub;
  if log then
    Runtime.record_custom_ddl t.mgr ~kind:"subscription" ~name:p.p_name ~payload:ddl

let subscribe t ddl = subscribe_internal t ddl

let unsubscribe t name =
  match find_sub t name with
  | None -> fail "no subscription %S" name
  | Some _ ->
    Runtime.drop_trigger ~log:false t.mgr (trigger_name name);
    t.subs <- List.remove_assoc name t.subs;
    t.ordered <- List.rev t.subs;
    Hashtbl.remove t.by_name name;
    Runtime.record_custom_ddl t.mgr ~kind:"drop_subscription" ~name ~payload:""

let subscription_names t = List.rev_map fst t.subs
let subscriptions t = List.rev_map snd t.subs

(* Re-arm subscriptions after {!Runtime.reopen}: replay the logged
   subscription DDL (recovery meta, commit order).  The fresh runtime's DDL
   log starts empty, so re-subscribing re-records each surviving
   subscription — the next checkpoint then carries them forward. *)
let rearm t ~meta =
  let errors = ref [] in
  List.iter
    (fun (kind, name, payload) ->
      match kind with
      | "subscription" -> (
        match subscribe_internal t payload with
        | () -> ()
        | exception Error msg -> errors := Printf.sprintf "subscription %S: %s" name msg :: !errors)
      | "drop_subscription" ->
        if find_sub t name <> None then (
          match unsubscribe t name with
          | () -> ()
          | exception Error msg -> errors := Printf.sprintf "drop %S: %s" name msg :: !errors)
      | _ -> ())
    meta;
  List.rev !errors

(* --- sinks --- *)

let add_callback t f = t.sinks <- Callback f :: t.sinks

let add_file t ~path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  t.sinks <- File { path; oc } :: t.sinks

let add_server t server = t.sinks <- Socket server :: t.sinks

let server t =
  List.find_map (function Socket s -> Some s | _ -> None) t.sinks

(* --- delivery --- *)

let deliver_one t n =
  List.iter
    (function
      | Callback f -> f n
      | File { oc; _ } ->
        output_string oc (Notification.to_ndjson n);
        output_char oc '\n'
      | Socket srv -> Server.publish srv (Notification.to_ndjson n))
    t.sinks

(* Push one flush's batches to the sinks, in subscription-creation order. *)
let deliver_batches t ~tracer batches =
  List.iter
    (fun (sub, items) ->
      let t0 = Obs.Trace.now () in
      List.iter (deliver_one t) items;
      List.iter
        (function File { oc; _ } -> flush oc | Callback _ | Socket _ -> ())
        t.sinks;
      Obs.Metrics.observe_in t.registry sub.sb_metric
        (Int64.sub (Obs.Trace.now ()) t0);
      if Obs.Trace.enabled tracer then
        Obs.Trace.finish_note tracer t0 "deliver" sub.sb_name)
    batches

(* No-ops.  Sink I/O always runs inside [flush]: every notification has
   reached the sinks by the time [flush] returns, so there is no writer to
   start or drain.  They remain only because the fanout-notify benchmark
   workload (bench/e2e/fanout_notify.ml) still calls them; drop them
   together with those calls. *)
let start_writer (_ : t) = ()
let drain_writer (_ : t) = ()

let close_sinks t =
  List.iter
    (function
      | File { oc; _ } -> close_out_noerr oc
      | Callback _ | Socket _ -> ())
    t.sinks;
  t.sinks <- []

(* Drain every subscription queue to the sinks, in subscription-creation
   order; within one queue, items leave in enqueue (statement) order.  Ends
   the current coalescing window.  Returns the number of notifications
   delivered.  Delivery latency is recorded per subscription, and a
   [deliver] span per non-empty queue lands in the runtime's tracer. *)
let flush t =
  t.flushes <- t.flushes + 1;
  let tracer = Database.tracer (Runtime.database t.mgr) in
  let batches =
    List.filter_map
      (fun (_, sub) ->
        match Squeue.flush sub.sb_queue with
        | [] -> None
        | items -> Some (sub, items))
      t.ordered
  in
  let total =
    List.fold_left (fun acc (_, items) -> acc + List.length items) 0 batches
  in
  deliver_batches t ~tracer batches;
  t.notifications_delivered <- total + t.notifications_delivered;
  total

(* --- observability --- *)

let pending t =
  List.fold_left (fun acc (_, s) -> acc + Squeue.depth s.sb_queue) 0 t.subs

let report t =
  let buf = Buffer.create 512 in
  if t.subs = [] then Buffer.add_string buf "(no subscriptions)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-16s %-7s %-10s %-8s %9s %9s %9s %9s %7s\n" "name"
         "event" "overflow" "coalesce" "enqueued" "delivered" "dropped"
         "coalesced" "depth");
    List.iter
      (fun (_, s) ->
        Buffer.add_string buf
          (Printf.sprintf "%-16s %-7s %-10s %-8s %9d %9d %9d %9d %7d%s\n"
             s.sb_name
             (Database.string_of_event s.sb_event)
             (Squeue.overflow_to_string (Squeue.overflow s.sb_queue))
             (if Squeue.coalescing s.sb_queue then "on" else "off")
             (Squeue.enqueued s.sb_queue)
             (Squeue.delivered s.sb_queue)
             (Squeue.dropped s.sb_queue)
             (Squeue.coalesced s.sb_queue)
             (Squeue.depth s.sb_queue)
             (if Squeue.disconnected s.sb_queue then " [disconnected]" else "")))
      (List.rev t.subs);
    Buffer.add_string buf
      (Printf.sprintf "%d flush(es), %d notification(s) delivered to %d sink(s)\n"
         t.flushes t.notifications_delivered (List.length t.sinks))
  end;
  (match server t with
  | None -> ()
  | Some srv ->
    Buffer.add_string buf
      (Printf.sprintf
         "socket server: %d client(s), %d published, %d frame(s) sent, %d \
          dropped, %d evicted (deadline %d ms)\n"
         (Server.client_count srv) (Server.published srv)
         (Server.frames_sent srv) (Server.clients_dropped srv)
         (Server.clients_evicted srv) (Server.deadline_ms srv)));
  Buffer.contents buf

(* The hub's metric families, declared once: per-subscription queue
   counters and depth (present once a subscription exists), the socket
   server's counters and gauges (present while one is attached), and the
   per-subscription delivery latencies.  {!Api} serves them after the
   runtime's own families. *)
let families t =
  let open Obs.Metrics in
  let per f () = List.rev_map (fun (name, s) -> (name, f s.sb_queue)) t.subs in
  [ counter "trigview_subscription_enqueued_total" (per Squeue.enqueued);
    counter "trigview_subscription_delivered_total" (per Squeue.delivered);
    counter "trigview_subscription_dropped_total" (per Squeue.dropped);
    counter "trigview_subscription_coalesced_total" (per Squeue.coalesced);
    gauge "trigview_subscription_depth" (per Squeue.depth);
  ]
  @ (match server t with
    | None -> []
    | Some srv ->
      [ counter "trigview_subscribe_server_total" (fun () ->
            [ ("published", Server.published srv);
              ("frames_sent", Server.frames_sent srv);
              ("clients_dropped", Server.clients_dropped srv);
              ("clients_evicted", Server.clients_evicted srv);
            ]);
        gauge "trigview_subscribe_server_deadline_ms" (fun () ->
            [ ("configured", Server.deadline_ms srv) ]);
        gauge "trigview_subscribe_server_clients" (fun () ->
            [ ("connected", Server.client_count srv) ]);
      ])
  @ [ histogram "trigview_delivery_ns" (fun () -> histograms t.registry) ]

let metrics_prometheus t = Obs.Metrics.prometheus (families t)
