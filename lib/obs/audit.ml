(* Firing provenance: "why did this trigger fire?"

   An audit log is a bounded ring of structured records, one per SQL-trigger
   activation that reached the delta query (the unit the paper's pipeline
   turns into XML-trigger firings).  Each record carries the full lineage
   chain: the DML statement (id, event, table, transition-table row counts)
   → the generated SQL trigger that it reached → the delta query that
   computed the (OLD_NODE, NEW_NODE) pairs (plan mode, fragment link keys)
   → the pair counts, split into kept / rejected-as-spurious (OLD = NEW) /
   rejected-by-condition → the action invocations dispatched, each with its
   condition outcome.

   The hot-path contract matches {!Trace}: when auditing is disabled, every
   instrumented site performs one boolean load and allocates nothing.  When
   enabled, the record is inserted *before* dispatch (so action callbacks
   can link back to it by id) and its counters are mutated as the firing
   proceeds; a record evicted mid-firing keeps accumulating harmlessly.

   Ids are 1-based and monotonically increasing; eviction drops the oldest
   record and bumps [dropped], so [find] on an evicted id returns [None]. *)

type action_outcome =
  | Fired  (* condition (if any) passed; the action callback ran *)
  | Condition_rejected  (* the fallback WHERE condition evaluated to false *)
  | No_action  (* passed, but no callback registered under that name *)

let string_of_outcome = function
  | Fired -> "fired"
  | Condition_rejected -> "condition-rejected"
  | No_action -> "no-action"

type action_rec = {
  a_trigger : string;  (* XML trigger name *)
  a_action : string;  (* registered action function name *)
  a_outcome : action_outcome;
  a_condition : string;  (* fallback condition text; "" when none *)
  a_has_old : bool;
  a_has_new : bool;
}

type record = {
  id : int;  (* the firing id [why] takes *)
  ts_ns : int64;  (* monotonic stamp at firing start *)
  stmt_id : int;  (* DML statement this firing derives from *)
  stmt_event : string;  (* INSERT / UPDATE / DELETE *)
  stmt_table : string;  (* table the statement modified *)
  sql_trigger : string;  (* generated SQL trigger that fired *)
  strategy : string;
  group_id : int;  (* trigger group (-1 for MATERIALIZED singletons) *)
  view : string;
  plan_table : string;  (* base table whose delta query ran *)
  plan_mode : string;  (* compiled / middleware / materialized *)
  frag_keys : string list;  (* delta-query fragment link keys *)
  cond_mode : string;  (* none / pushed / fallback *)
  origin : string;
      (* source text of the higher-level statement (view DML) the firing
         statement was translated from; "" for direct relational DML *)
  mutable delta_rows : int;  (* Δ transition rows handed to the delta query *)
  mutable nabla_rows : int;  (* ∇ transition rows *)
  mutable pairs_computed : int;  (* (OLD_NODE, NEW_NODE) pairs the query produced *)
  mutable pairs_spurious : int;  (* suppressed by the OLD = NEW check *)
  mutable pairs_kept : int;
  mutable cond_rejected : int;  (* dispatches suppressed by a fallback condition *)
  mutable dispatched : int;  (* action callbacks actually run *)
  mutable actions : action_rec list;  (* newest first *)
  mutable notes : string list;  (* downstream annotations, newest first *)
}

type t = {
  mutable enabled : bool;
  mutable buf : record array;  (* ring storage; length 0 until first record *)
  mutable head : int;  (* index of the oldest record *)
  mutable count : int;
  mutable dropped : int;  (* oldest records evicted since [clear] *)
  limit : int;
  mutable next_id : int;
}

let create ?(limit = 4096) () =
  { enabled = false; buf = [||]; head = 0; count = 0; dropped = 0;
    limit = max 1 limit; next_id = 1 }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let limit t = t.limit

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.count <- 0;
  t.dropped <- 0

let dropped t = t.dropped
let count t = t.count

(* Total records ever admitted (current + evicted). *)
let total t = t.count + t.dropped

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t r =
  if Array.length t.buf = 0 then t.buf <- Array.make t.limit r;
  if t.count >= t.limit then begin
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod t.limit;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.buf.((t.head + t.count) mod Array.length t.buf) <- r;
    t.count <- t.count + 1
  end

let records t =
  List.init t.count (fun i -> t.buf.((t.head + i) mod Array.length t.buf))

let find t id =
  let rec go i =
    if i >= t.count then None
    else
      let r = t.buf.((t.head + i) mod Array.length t.buf) in
      if r.id = id then Some r else go (i + 1)
  in
  go 0

(* Attach a downstream annotation (e.g. a maintained view noting that it
   consumed this firing) to a live record; a no-op on evicted ids. *)
let annotate t ~firing_id note =
  match find t firing_id with
  | Some r -> r.notes <- note :: r.notes
  | None -> ()

(* --- rendering --- *)

let summary_line r =
  Printf.sprintf
    "#%-4d stmt#%-4d %-6s %-12s %-44s pairs=%d kept=%d spurious=%d condrej=%d dispatched=%d"
    r.id r.stmt_id r.stmt_event r.stmt_table r.sql_trigger r.pairs_computed
    r.pairs_kept r.pairs_spurious r.cond_rejected r.dispatched

let render t =
  match records t with
  | [] -> "(no audit records; enable auditing and run some statements)"
  | rs ->
    let buf = Buffer.create 1024 in
    List.iter (fun r -> Buffer.add_string buf (summary_line r); Buffer.add_char buf '\n') rs;
    if t.dropped > 0 then
      Buffer.add_string buf
        (Printf.sprintf "(%d older records evicted: buffer limit)\n" t.dropped);
    Buffer.contents buf

(* The full lineage chain of one firing, for [why <id>]. *)
let render_record r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "firing #%d — %s on view %S (strategy %s%s)" r.id r.stmt_event r.view
    r.strategy
    (if r.group_id >= 0 then Printf.sprintf ", group %d" r.group_id else "");
  line "  statement   : #%d %s on %s (Δ=%d inserted row%s, ∇=%d deleted row%s)"
    r.stmt_id r.stmt_event r.stmt_table r.delta_rows
    (if r.delta_rows = 1 then "" else "s")
    r.nabla_rows
    (if r.nabla_rows = 1 then "" else "s");
  if r.origin <> "" then line "  origin      : %s" r.origin;
  line "  sql trigger : %s" r.sql_trigger;
  line "  delta query : %s plan over %s%s" r.plan_mode r.plan_table
    (match r.frag_keys with
    | [] -> ""
    | ks -> Printf.sprintf "; fragment links: [%s]" (String.concat "; " ks));
  line "  node pairs  : %d computed, %d spurious (OLD = NEW, suppressed), %d kept"
    r.pairs_computed r.pairs_spurious r.pairs_kept;
  line "  condition   : %s"
    (match r.cond_mode with
    | "pushed" -> "pushed into the delta query (rejected pairs never surface)"
    | "fallback" ->
      Printf.sprintf "evaluated per dispatch below (%d rejected)" r.cond_rejected
    | _ -> "none");
  (match List.rev r.actions with
  | [] -> line "  actions     : (none dispatched)"
  | actions ->
    line "  actions     :";
    List.iter
      (fun a ->
        line "    - trigger %S action %S: %s%s%s" a.a_trigger a.a_action
          (string_of_outcome a.a_outcome)
          (match a.a_outcome, a.a_condition with
          | Condition_rejected, c when c <> "" -> Printf.sprintf " [WHERE %s → false]" c
          | Fired, c when c <> "" -> Printf.sprintf " [WHERE %s → true]" c
          | _ -> "")
          (Printf.sprintf " (OLD_NODE %s, NEW_NODE %s)"
             (if a.a_has_old then "present" else "absent")
             (if a.a_has_new then "present" else "absent")))
      actions);
  (match List.rev r.notes with
  | [] -> ()
  | notes ->
    line "  notes       :";
    List.iter (fun n -> line "    - %s" n) notes);
  Buffer.contents buf

let why t id =
  match find t id with
  | Some r -> render_record r
  | None ->
    if id >= 1 && id < t.next_id then
      Printf.sprintf "firing #%d was evicted from the audit ring (limit %d, %d dropped)\n"
        id t.limit t.dropped
    else Printf.sprintf "no such firing #%d (ids run 1..%d)\n" id (t.next_id - 1)

(* --- JSON --- *)

let esc = Metrics.json_escape

let action_json a =
  Printf.sprintf
    "{\"trigger\": \"%s\", \"action\": \"%s\", \"outcome\": \"%s\", \
     \"condition\": \"%s\", \"has_old\": %b, \"has_new\": %b}"
    (esc a.a_trigger) (esc a.a_action)
    (string_of_outcome a.a_outcome)
    (esc a.a_condition) a.a_has_old a.a_has_new

let record_json r =
  Printf.sprintf
    "{\"id\": %d, \"ts_ns\": %Ld, \"stmt_id\": %d, \"stmt_event\": \"%s\", \
     \"stmt_table\": \"%s\", \"sql_trigger\": \"%s\", \"strategy\": \"%s\", \
     \"group\": %d, \"view\": \"%s\", \"plan_table\": \"%s\", \"plan_mode\": \
     \"%s\", \"frag_keys\": [%s], \"cond_mode\": \"%s\", \"origin\": \"%s\", \
     \"delta_rows\": %d, \
     \"nabla_rows\": %d, \"pairs_computed\": %d, \"pairs_spurious\": %d, \
     \"pairs_kept\": %d, \"cond_rejected\": %d, \"dispatched\": %d, \
     \"actions\": [%s], \"notes\": [%s]}"
    r.id r.ts_ns r.stmt_id (esc r.stmt_event) (esc r.stmt_table)
    (esc r.sql_trigger) (esc r.strategy) r.group_id (esc r.view)
    (esc r.plan_table) (esc r.plan_mode)
    (String.concat ", " (List.map (fun k -> "\"" ^ esc k ^ "\"") r.frag_keys))
    (esc r.cond_mode) (esc r.origin) r.delta_rows r.nabla_rows r.pairs_computed
    r.pairs_spurious r.pairs_kept r.cond_rejected r.dispatched
    (String.concat ", " (List.map action_json (List.rev r.actions)))
    (String.concat ", " (List.map (fun n -> "\"" ^ esc n ^ "\"") (List.rev r.notes)))

let to_json t =
  "[" ^ String.concat ", " (List.map record_json (records t)) ^ "]"

(* Instant-event feed for {!Trace.to_chrome_json}: one instant per record,
   stamped at firing start, args = the full record object. *)
let chrome_instants t =
  List.map
    (fun r -> (Printf.sprintf "firing#%d %s" r.id r.sql_trigger, r.ts_ns, record_json r))
    (records t)
