(* The closed-loop harness shared by the four workloads.

   One run builds the workload's state several times (see [Runner]), warms
   up untimed on the same generator, compacts the heap, runs
   the timed phase and then the workload's oracle checks.  An untraced run
   reports the end-to-end metrics.  A traced run alternates one-second
   untraced and traced slices: spans come from the traced slices, and the
   throughput of the two kinds gives the tracing overhead. *)

module Runtime = Trigview.Runtime

let now = Obs.Trace.now  (* the clock the program's own spans use *)
let ms ns = Int64.to_float ns /. 1e6
let ms_since t0 = ms (Int64.sub (now ()) t0)
let ns_of_s s = Int64.of_float (s *. 1e9)

(* --- benchmark-side spans, one recorder per recording domain --- *)

(* [dom] is the domain that drives the ops; a span is tagged with the domain
   it ran on.  Two domains may share a recorder only by taking turns. *)
type recorder = { dom : int; mutable on : bool; mutable spans : Spans.t list }

let recorder () = { dom = (Domain.self () :> int); on = false; spans = [] }

let push r name note t0 =
  r.spans <-
    { Spans.name; note; dom = (Domain.self () :> int); start_ns = t0; end_ns = now () } :: r.spans

let span r ?(note = "") name f =
  if not r.on then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
      push r name note t0;
      v
    | exception e ->
      push r name note t0;
      raise e
  end

let take r =
  let s = r.spans in
  r.spans <- [];
  s

(* --- what one kind of slice (untraced or traced) accumulates --- *)

(* A stretch of the timed phase: its length, ops, and the index ranges its
   samples occupy in the slice's buffers. *)
type window = {
  w_ns : int64;
  w_ops : int;
  w_stmt : int * int;
  w_notify : int * int;
  w_query : int * int;
}

type slices = {
  stmt : Samples.t;  (* ms per write *)
  notify : Samples.t;  (* ms from a write's start to each notification *)
  query : Samples.t;  (* ms per read *)
  mutable ops : int;
  mutable wall_ns : int64;
  mutable cpu_s : float;
  mutable alloc_words : float;
  mutable majors : int;
  mutable windows : window list;  (* newest first *)
}

let slices () =
  { stmt = Samples.create ();
    notify = Samples.create ();
    query = Samples.create ();
    ops = 0;
    wall_ns = 0L;
    cpu_s = 0.0;
    alloc_words = 0.0;
    majors = 0;
    windows = [];
  }

type ctx = {
  seed : int;
  tmp : string;  (* scratch directory for files a workload writes *)
  trace : bool;
  plain : slices;
  traced : slices;
  mutable cur : slices;
  mutable recording : bool;  (* false in warm-up, set-up and tails *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few failures, newest first *)
  self : (string, Samples.t) Hashtbl.t;  (* span key -> self ms *)
  incl : (string, Samples.t) Hashtbl.t;  (* span key -> duration ms *)
  mutable self_ns : float;  (* traced ops: summed self time ... *)
  mutable dur_ns : float;  (* ... and summed op duration *)
  mutable inexact : int;  (* single-domain ops whose self times miss their duration *)
  mutable pending : (Spans.t * Spans.t list) list;  (* traced ops of the running slice *)
  mutable kept : (int * Spans.node array) list;  (* first traced ops, newest first *)
  mutable op_id : int;
  mutable trace_dropped : int;
  setup_calls : (string, Samples.t) Hashtbl.t;  (* arming calls of the last set-up, ms *)
  layer : (string, float) Hashtbl.t;  (* per-layer values set by the workload *)
}

let create ~seed ~tmp ~trace =
  let plain = slices () in
  { seed;
    tmp;
    trace;
    plain;
    traced = slices ();
    cur = plain;
    recording = false;
    attempted = 0;
    failed = 0;
    errors = [];
    self = Hashtbl.create 32;
    incl = Hashtbl.create 32;
    self_ns = 0.0;
    dur_ns = 0.0;
    inexact = 0;
    pending = [];
    kept = [];
    op_id = 0;
    trace_dropped = 0;
    setup_calls = Hashtbl.create 4;
    layer = Hashtbl.create 16;
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.errors < 10 then begin
    ctx.errors <- msg :: ctx.errors;
    prerr_endline ("trigbench: " ^ msg)
  end

(* One oracle check: counts as attempted, and as failed when [ok] is false. *)
let check ctx ok msg =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then fail ctx msg

let stmt ctx v = if ctx.recording then Samples.add ctx.cur.stmt v
let notify ctx v = if ctx.recording then Samples.add ctx.cur.notify v
let query ctx v = if ctx.recording then Samples.add ctx.cur.query v
let set_layer ctx name v = Hashtbl.replace ctx.layer name v

let samples tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = Samples.create () in
    Hashtbl.add tbl key s;
    s

(* A timed arming call during set-up (view definition, trigger creation);
   each set-up starts the table afresh, so the last one is reported. *)
let setup_call ctx name f =
  let t0 = now () in
  let v = f () in
  Samples.add (samples ctx.setup_calls name) (ms_since t0);
  v

(* --- traced ops: self time per span --- *)

(* HTTP spans are keyed by endpoint, so reads and writes stay apart. *)
let span_key (s : Spans.t) = if s.Spans.name = "http" then "http " ^ s.Spans.note else s.Spans.name

let kept_ops = 200

let analyze ctx (root : Spans.t) spans =
  let nodes = Spans.tree (root :: spans) in
  let inside = Array.to_list nodes |> List.filter (fun nd -> Spans.contains root nd.Spans.span) in
  let self_sum = List.fold_left (fun acc nd -> Int64.add acc nd.Spans.self_ns) 0L inside in
  let dur = Spans.dur root in
  ctx.self_ns <- ctx.self_ns +. Int64.to_float self_sum;
  ctx.dur_ns <- ctx.dur_ns +. Int64.to_float dur;
  (* on one domain the nesting is exact, so the self times must add up *)
  if List.for_all (fun nd -> nd.Spans.span.Spans.dom = root.Spans.dom) inside && self_sum <> dur then
    ctx.inexact <- ctx.inexact + 1;
  List.iter
    (fun nd ->
      let key = span_key nd.Spans.span in
      Samples.add (samples ctx.self key) (ms nd.Spans.self_ns);
      Samples.add (samples ctx.incl key) (ms (Spans.dur nd.Spans.span)))
    inside;
  if ctx.op_id < kept_ops then ctx.kept <- (ctx.op_id, nodes) :: ctx.kept;
  ctx.op_id <- ctx.op_id + 1

(* Drain the program's spans recorded since the last drain; the ring is
   cleared every time, so it never evicts and [trace.dropped] stays 0. *)
let drain ctx mgr =
  let tracer = Relkit.Database.tracer (Runtime.database mgr) in
  let evs = Obs.Trace.events_with_domains tracer in
  ctx.trace_dropped <- ctx.trace_dropped + Obs.Trace.dropped tracer;
  if evs <> [] then Runtime.trace_clear mgr;
  List.map (fun (dom, ev) -> Spans.of_event ~dom ev) evs

(* A traced op of a single-domain workload: its spans are kept until the
   slice ends, so the analysis does not count as tracing overhead. *)
let defer ctx mgr root spans = ctx.pending <- (root, spans @ drain ctx mgr) :: ctx.pending

let analyze_pending ctx =
  List.iter (fun (root, spans) -> analyze ctx root spans) (List.rev ctx.pending);
  ctx.pending <- []

(* One closed-loop operation.  A failure [f] raises is counted, and the
   loop goes on.  While tracing, the op's root span and the benchmark spans
   recorded in [r] go to [finish]. *)
let run_op ctx r ~finish f =
  ctx.attempted <- ctx.attempted + 1;
  if ctx.recording then ctx.cur.ops <- ctx.cur.ops + 1;
  let traced = r.on in
  let t0 = now () in
  (match f () with () -> () | exception e -> fail ctx (Printexc.to_string e));
  if traced then
    finish { Spans.name = "op"; note = ""; dom = r.dom; start_ns = t0; end_ns = now () } (take r)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let window_ns = ns_of_s 0.5

(* Run [step] back to back for [seconds].  While recording a traced run,
   alternate one-second untraced and traced slices, switching tracing with
   [set_tracing]; otherwise run one untraced slice. *)
let closed_loop ctx ~seconds ~set_tracing ~step =
  let t_end = Int64.add (now ()) (ns_of_s seconds) in
  let slice = if ctx.trace && ctx.recording then ns_of_s 1.0 else ns_of_s seconds in
  let traced = ref false in
  while Int64.compare (now ()) t_end < 0 do
    let sl = if !traced then ctx.traced else ctx.plain in
    ctx.cur <- sl;
    set_tracing !traced;
    let w0 = now () and c0 = cpu_s () and a0 = alloc_words () in
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let s_end = min t_end (Int64.add w0 slice) in
    let win0 = ref w0 and ops0 = ref sl.ops in
    let marks () = (Samples.count sl.stmt, Samples.count sl.notify, Samples.count sl.query) in
    let m = ref (marks ()) in
    while Int64.compare (now ()) s_end < 0 do
      step ();
      let t = now () in
      if ctx.recording && Int64.compare (Int64.sub t !win0) window_ns >= 0 then begin
        let (s0, n0, q0), (s1, n1, q1) = (!m, marks ()) in
        sl.windows <-
          { w_ns = Int64.sub t !win0; w_ops = sl.ops - !ops0; w_stmt = (s0, s1); w_notify = (n0, n1);
            w_query = (q0, q1) }
          :: sl.windows;
        win0 := t;
        ops0 := sl.ops;
        m := marks ()
      end
    done;
    if ctx.recording then begin
      sl.wall_ns <- Int64.add sl.wall_ns (Int64.sub (now ()) w0);
      sl.cpu_s <- sl.cpu_s +. (cpu_s () -. c0);
      sl.alloc_words <- sl.alloc_words +. (alloc_words () -. a0);
      sl.majors <- sl.majors + ((Gc.quick_stat ()).Gc.major_collections - m0)
    end;
    analyze_pending ctx;
    if ctx.trace && ctx.recording then traced := not !traced
  done;
  set_tracing false;
  ctx.cur <- ctx.plain

type pooled = { ops : int; secs : float; stmt : Samples.t; notify : Samples.t; query : Samples.t }

(* The [share] of [sl]'s windows with the highest throughput, pooled; share
   1.0 pools every window.  On a shared host the machine's own speed swings
   within seconds, and the fastest windows follow the program rather than
   its neighbours.  They also leave out the windows that hold a stall, so
   what a stall costs shows only in figures taken over every window. *)
let fastest sl share =
  let rate w = float_of_int w.w_ops /. Int64.to_float w.w_ns in
  let ws = List.sort (fun a b -> Float.compare (rate b) (rate a)) sl.windows in
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int (List.length ws)))) in
  let chosen = List.filteri (fun i _ -> i < k) ws in
  let pool buf range =
    let s = Samples.create () and a = Samples.to_array buf in
    List.iter
      (fun w ->
        let i, j = range w in
        for x = i to j - 1 do
          Samples.add s a.(x)
        done)
      chosen;
    s
  in
  { ops = List.fold_left (fun acc w -> acc + w.w_ops) 0 chosen;
    secs = List.fold_left (fun acc w -> acc +. (Int64.to_float w.w_ns /. 1e9)) 0.0 chosen;
    stmt = pool sl.stmt (fun w -> w.w_stmt);
    notify = pool sl.notify (fun w -> w.w_notify);
    query = pool sl.query (fun w -> w.w_query);
  }

(* --- a workload --- *)

type instance = {
  prom : unit -> string;  (* the program's Prometheus text, for counters *)
  run : ctx -> seconds:float -> unit;  (* the closed loop, via [closed_loop] *)
  finish : ctx -> unit;  (* post-run work and the oracle checks *)
  close : unit -> unit;  (* release sockets, domains and temp dirs *)
}

type workload = {
  name : string;
  why : string;
  domains : int;  (* TRIGVIEW_DOMAINS the workload runs at *)
  setup : ctx -> instance;
}
