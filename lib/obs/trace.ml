(* Lightweight span tracing.

   A tracer is a bounded in-memory sink of completed spans, each stamped
   with monotonic-clock nanoseconds ({!Monotonic_clock}, CLOCK_MONOTONIC).
   The hot-path contract: when the tracer is disabled, instrumented code
   performs exactly one boolean load per probe and allocates nothing —
   [start] returns the constant [0L] and [finish*] returns immediately.
   Call sites that build label strings must guard on [enabled] so the
   string is never allocated when tracing is off.

   A tracer may be shared by several domains (benchmark and test client
   domains beside the engine's), so each domain records into its own
   ring: rings are created on first record from a domain (under
   [rings_lock]) and published by swapping the
   [rings] array pointer, so the record fast path takes no lock — it scans
   a tiny array for its own ring and appends, and only the owning domain
   ever mutates a ring's interior.  Readers ([events], [render], exports)
   merge all rings by start timestamp.

   Each ring is a true ring: when full, recording evicts the *oldest*
   span (a long run keeps its most recent window, not its startup), and
   [dropped] counts evictions across all rings.

   Nesting is not tracked at record time (that would need exception-safe
   enter/leave pairs on hot paths); the renderer reconstructs the span tree
   from interval containment, which is exact for single-threaded nesting
   and approximate across domains. *)

type event = {
  ev_name : string;
  ev_note : string;
  ev_start_ns : int64;
  ev_dur_ns : int64;
}

type ring = {
  ring_dom : int;  (* Domain.self of the recording domain *)
  mutable buf : event array;  (* ring storage; length 0 until first record *)
  mutable head : int;  (* index of the oldest event *)
  mutable count : int;
  mutable dropped : int;  (* oldest events evicted since [clear] *)
}

type t = {
  mutable enabled : bool;
  mutable rings : ring array;  (* published by pointer swap under [rings_lock] *)
  rings_lock : Mutex.t;
  limit : int;
}

let now () = Monotonic_clock.now ()

let create ?(limit = 8192) () =
  { enabled = false; rings = [||]; rings_lock = Mutex.create (); limit = max 1 limit }

let limit t = t.limit

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let clear t =
  Mutex.lock t.rings_lock;
  t.rings <- [||];
  Mutex.unlock t.rings_lock

let dropped t = Array.fold_left (fun acc r -> acc + r.dropped) 0 t.rings

let my_ring t =
  let dom = (Domain.self () :> int) in
  let rings = t.rings in
  let n = Array.length rings in
  let rec find i = if i = n then None else if rings.(i).ring_dom = dom then Some rings.(i) else find (i + 1) in
  match find 0 with
  | Some r -> r
  | None ->
    Mutex.lock t.rings_lock;
    (* re-check: someone (only ourselves, actually) may have added it *)
    let rings = t.rings in
    let n = Array.length rings in
    let rec find i = if i = n then None else if rings.(i).ring_dom = dom then Some rings.(i) else find (i + 1) in
    let r =
      match find 0 with
      | Some r -> r
      | None ->
        let r = { ring_dom = dom; buf = [||]; head = 0; count = 0; dropped = 0 } in
        t.rings <- Array.append rings [| r |];
        r
    in
    Mutex.unlock t.rings_lock;
    r

let record t ev =
  let r = my_ring t in
  if Array.length r.buf = 0 then r.buf <- Array.make (max 1 t.limit) ev;
  if r.count >= t.limit then begin
    (* full: overwrite the oldest slot and advance the head *)
    r.buf.(r.head) <- ev;
    r.head <- (r.head + 1) mod t.limit;
    r.dropped <- r.dropped + 1
  end
  else begin
    r.buf.((r.head + r.count) mod Array.length r.buf) <- ev;
    r.count <- r.count + 1
  end

let start t = if t.enabled then now () else 0L

let finish_note t t0 name note =
  if t.enabled && Int64.compare t0 0L <> 0 then
    record t
      { ev_name = name; ev_note = note; ev_start_ns = t0; ev_dur_ns = Int64.sub (now ()) t0 }

let finish t t0 name = finish_note t t0 name ""

(* Exception-safe convenience for cold paths (allocates a closure). *)
let span t ?(note = "") name f =
  if not t.enabled then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> finish_note t t0 name note) f
  end

let ring_events r =
  List.init r.count (fun i -> r.buf.((r.head + i) mod Array.length r.buf))

let events t =
  Array.fold_left (fun acc r -> List.rev_append (ring_events r) acc) [] t.rings
  |> List.sort (fun a b -> Int64.compare a.ev_start_ns b.ev_start_ns)

(* Events paired with the id of the domain that recorded them, merged and
   sorted; the Chrome export uses the domain id as the thread id. *)
let events_with_domains t =
  Array.fold_left
    (fun acc r -> List.rev_append (List.map (fun ev -> (r.ring_dom, ev)) (ring_events r)) acc)
    [] t.rings
  |> List.sort (fun (_, a) (_, b) -> Int64.compare a.ev_start_ns b.ev_start_ns)

(* Depth from interval containment: an event is nested under every earlier
   event whose [start, start+dur) interval still covers its start. *)
let with_depths t =
  let evs = events t in
  let stack = ref [] in  (* end timestamps of open ancestors *)
  List.map
    (fun ev ->
      let ends_after e = Int64.compare e ev.ev_start_ns > 0 in
      stack := List.filter ends_after !stack;
      let depth = List.length !stack in
      stack := Int64.add ev.ev_start_ns ev.ev_dur_ns :: !stack;
      (depth, ev))
    evs

let render t =
  match with_depths t with
  | [] -> "(no trace events; enable tracing and run some statements)"
  | devs ->
    let epoch =
      match devs with (_, ev) :: _ -> ev.ev_start_ns | [] -> 0L
    in
    let buf = Buffer.create 1024 in
    List.iter
      (fun (depth, ev) ->
        Buffer.add_string buf
          (Printf.sprintf "[+%10s] %9s  %s%s%s\n"
             (Metrics.pp_duration_ns (Int64.to_float (Int64.sub ev.ev_start_ns epoch)))
             (Metrics.pp_duration_ns (Int64.to_float ev.ev_dur_ns))
             (String.make (2 * depth) ' ')
             ev.ev_name
             (if ev.ev_note = "" then "" else " " ^ ev.ev_note)))
      devs;
    let d = dropped t in
    if d > 0 then
      Buffer.add_string buf (Printf.sprintf "(%d events dropped: buffer limit)\n" d);
    Buffer.contents buf

let to_json t =
  let entries =
    List.map
      (fun (depth, ev) ->
        Printf.sprintf
          "{\"name\": \"%s\", \"note\": \"%s\", \"start_ns\": %Ld, \"dur_ns\": %Ld, \"depth\": %d}"
          (Metrics.json_escape ev.ev_name)
          (Metrics.json_escape ev.ev_note)
          ev.ev_start_ns ev.ev_dur_ns depth)
      (with_depths t)
  in
  "[" ^ String.concat ", " entries ^ "]"

(* --- Chrome trace-event export (load in Perfetto / chrome://tracing) ---

   Spans become "ph":"X" complete events; [instants] (caller-supplied, e.g.
   audit records) become "ph":"i" instant events with a JSON args payload.
   Timestamps are microseconds as the format requires; fractional µs keep
   the ns resolution.  All events share pid 1; the tid is the id of the
   domain that recorded the span, so a multi-domain run shows one track
   per domain and Perfetto reconstructs per-track nesting from containment. *)

let chrome_ts ns = Int64.to_float ns /. 1_000.0

let to_chrome_json ?(instants = []) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_string buf ", ";
    Buffer.add_string buf s
  in
  List.iter
    (fun (dom, ev) ->
      emit
        (Printf.sprintf
           "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
            \"pid\": 1, \"tid\": %d%s}"
           (Metrics.json_escape ev.ev_name)
           (chrome_ts ev.ev_start_ns)
           (chrome_ts ev.ev_dur_ns)
           (dom + 1)
           (if ev.ev_note = "" then ""
            else
              Printf.sprintf ", \"args\": {\"note\": \"%s\"}"
                (Metrics.json_escape ev.ev_note))))
    (events_with_domains t);
  List.iter
    (fun (name, ts_ns, args_json) ->
      emit
        (Printf.sprintf
           "{\"name\": \"%s\", \"ph\": \"i\", \"ts\": %.3f, \"pid\": 1, \
            \"tid\": 1, \"s\": \"g\", \"args\": %s}"
           (Metrics.json_escape name) (chrome_ts ts_ns)
           (if args_json = "" then "{}" else args_json)))
    (List.sort (fun (_, a, _) (_, b, _) -> Int64.compare a b) instants);
  Buffer.add_string buf "], \"displayTimeUnit\": \"ns\"}";
  Buffer.contents buf
