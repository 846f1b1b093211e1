(* Spans of one operation, and their self time.

   The benchmark records a span around every call it makes into a layer;
   the program records its own spans through Obs.Trace.  Both use the same
   monotonic clock, so [tree] can fold them into one forest by interval
   containment: a span's parent is the innermost earlier span that covers
   it, preferring one recorded on the same domain.  On one domain this is
   the exact call nesting; spans from pool domains hang under whatever
   covers them, which is approximate.

   Self time is a span's duration minus the union of its children's
   intervals.  A nested program span (a frag.exec inside a plan.exec) is
   therefore charged once, and a parent's self time plus the time its
   children cover equals its duration. *)

type t = {
  name : string;
  note : string;
  dom : int;  (* id of the recording domain *)
  start_ns : int64;
  end_ns : int64;
}

let dur s = Int64.sub s.end_ns s.start_ns

let of_event ~dom (ev : Obs.Trace.event) =
  { name = ev.Obs.Trace.ev_name;
    note = ev.Obs.Trace.ev_note;
    dom;
    start_ns = ev.Obs.Trace.ev_start_ns;
    end_ns = Int64.add ev.Obs.Trace.ev_start_ns ev.Obs.Trace.ev_dur_ns;
  }

let contains p c = p.start_ns <= c.start_ns && c.end_ns <= p.end_ns

type node = {
  span : t;
  parent : int;  (* index of the parent node; -1 for a root *)
  self_ns : int64;
}

(* Total length of the union of [children] clipped to [p]; [children] are
   sorted by start. *)
let covered p children =
  let total = ref 0L and cs = ref 0L and ce = ref 0L and open_ = ref false in
  List.iter
    (fun c ->
      let s = max c.start_ns p.start_ns and e = min c.end_ns p.end_ns in
      if e > s then
        if !open_ && s <= !ce then ce := max !ce e
        else begin
          if !open_ then total := Int64.add !total (Int64.sub !ce !cs);
          cs := s;
          ce := e;
          open_ := true
        end)
    children;
  if !open_ then Int64.add !total (Int64.sub !ce !cs) else !total

(* Outer spans first: by start, longer first on ties; the sort is stable, so
   identical intervals keep their input order (callers list the benchmark's
   own enclosing span first). *)
let tree spans =
  let a = Array.of_list spans in
  Array.stable_sort
    (fun x y ->
      match Int64.compare x.start_ns y.start_ns with
      | 0 -> Int64.compare y.end_ns x.end_ns
      | c -> c)
    a;
  let n = Array.length a in
  let parent = Array.make n (-1) in
  (* spans that may still cover a later one, most recent first *)
  let active = ref [] in
  for i = 0 to n - 1 do
    let s = a.(i) in
    active := List.filter (fun j -> a.(j).end_ns >= s.start_ns) !active;
    let covers j = contains a.(j) s in
    (match List.find_opt (fun j -> a.(j).dom = s.dom && covers j) !active with
    | Some j -> parent.(i) <- j
    | None -> (
      match List.find_opt covers !active with Some j -> parent.(i) <- j | None -> ()));
    active := i :: !active
  done;
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    if parent.(i) >= 0 then children.(parent.(i)) <- a.(i) :: children.(parent.(i))
  done;
  Array.mapi
    (fun i s ->
      { span = s; parent = parent.(i); self_ns = Int64.sub (dur s) (covered s children.(i)) })
    a

(* Chrome trace-event JSON (load in Perfetto): one complete event per span,
   the domain as the thread, the op id and self time as arguments. *)
let chrome_json (ops : (int * node array) list) =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\": [";
  let first = ref true in
  List.iter
    (fun (op, nodes) ->
      Array.iter
        (fun nd ->
          let s = nd.span in
          if not !first then Buffer.add_string b ",\n";
          first := false;
          Printf.bprintf b
            "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": \
             %d, \"args\": {\"op\": %d, \"self_us\": %.3f, \"note\": \"%s\"}}"
            (Obs.Metrics.json_escape s.name)
            (Int64.to_float s.start_ns /. 1e3)
            (Int64.to_float (dur s) /. 1e3)
            (s.dom + 1) op
            (Int64.to_float nd.self_ns /. 1e3)
            (Obs.Metrics.json_escape s.note))
        nodes)
    ops;
  Buffer.add_string b "], \"displayTimeUnit\": \"ns\"}\n";
  Buffer.contents b
