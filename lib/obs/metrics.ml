(* Log-bucketed latency histograms.

   A histogram is 48 power-of-two nanosecond buckets (bucket i counts
   durations in [2^i, 2^(i+1)) ns — enough to span 1 ns .. ~78 hours) plus
   exact count / sum / min / max.  Recording is a handful of integer ops and
   allocates nothing, so histograms can stay armed on hot paths.
   Percentiles are approximated by the geometric midpoint of the bucket
   containing the requested rank. *)

let n_buckets = 48

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum_ns : float;
  mutable min_ns : int64;
  mutable max_ns : int64;
}

let create_histogram () =
  { buckets = Array.make n_buckets 0;
    count = 0;
    sum_ns = 0.0;
    min_ns = Int64.max_int;
    max_ns = 0L;
  }

let bucket_of_ns ns =
  if Int64.compare ns 2L < 0 then 0
  else begin
    let rec go i n =
      if Int64.compare n 1L <= 0 then i else go (i + 1) (Int64.shift_right_logical n 1)
    in
    min (n_buckets - 1) (go 0 ns)
  end

let observe h ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  let b = bucket_of_ns ns in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum_ns <- h.sum_ns +. Int64.to_float ns;
  if Int64.compare ns h.min_ns < 0 then h.min_ns <- ns;
  if Int64.compare ns h.max_ns > 0 then h.max_ns <- ns

let mean_ns h = if h.count = 0 then 0.0 else h.sum_ns /. float_of_int h.count
let max_ns h = if h.count = 0 then 0L else h.max_ns
let min_ns h = if h.count = 0 then 0L else h.min_ns

(* Geometric midpoint of the bucket holding rank [q * count], clamped into
   [min_ns, max_ns]: the raw midpoint 2^(i+0.5) can exceed the recorded
   maximum (the rank lands in the top occupied bucket but max_ns sits in
   its lower half) or undershoot the minimum (bucket 0's midpoint is
   ~1.4 ns regardless of the actual samples), and a percentile outside the
   observed range is a lie. *)
let percentile_ns h q =
  if h.count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let clamp v =
      Float.max (Int64.to_float h.min_ns) (Float.min v (Int64.to_float h.max_ns))
    in
    let rec go i seen =
      if i >= n_buckets then Int64.to_float h.max_ns
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then
          (* midpoint of [2^i, 2^(i+1)) in log space *)
          clamp (2.0 ** (float_of_int i +. 0.5))
        else go (i + 1) seen
    in
    go 0 0
  end

let pp_duration_ns ns =
  if ns < 1_000.0 then Printf.sprintf "%.0fns" ns
  else if ns < 1_000_000.0 then Printf.sprintf "%.1fus" (ns /. 1_000.0)
  else if ns < 1_000_000_000.0 then Printf.sprintf "%.2fms" (ns /. 1_000_000.0)
  else Printf.sprintf "%.3fs" (ns /. 1_000_000_000.0)

let render_histogram ~name h =
  if h.count = 0 then Printf.sprintf "%-32s (no samples)" name
  else
    Printf.sprintf "%-32s n=%-7d mean=%-9s p50=%-9s p95=%-9s p99=%-9s max=%s"
      name h.count
      (pp_duration_ns (mean_ns h))
      (pp_duration_ns (percentile_ns h 0.50))
      (pp_duration_ns (percentile_ns h 0.95))
      (pp_duration_ns (percentile_ns h 0.99))
      (pp_duration_ns (Int64.to_float (max_ns h)))

(* --- JSON helpers (shared with Trace) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Cumulative counts per inclusive power-of-two upper bound (bucket i is
   [2^i, 2^(i+1))), up to the top occupied bucket: trailing empty buckets
   are elided, and the +Inf bucket (= count) closes the series. *)
let cumulative_buckets h =
  let top =
    let rec go i best = if i >= n_buckets then best else go (i + 1) (if h.buckets.(i) > 0 then i else best) in
    go 0 (-1)
  in
  let rec go i cum acc =
    if i > top then List.rev acc
    else
      let cum = cum + h.buckets.(i) in
      go (i + 1) cum ((2.0 ** float_of_int (i + 1), cum) :: acc)
  in
  go 0 0 []

let histogram_json_fields h =
  Printf.sprintf
    "\"count\": %d, \"sum_ns\": %.0f, \"mean_ns\": %.1f, \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f, \"min_ns\": %Ld, \"max_ns\": %Ld, \"buckets\": [%s]"
    h.count h.sum_ns (mean_ns h) (percentile_ns h 0.50) (percentile_ns h 0.95)
    (percentile_ns h 0.99) (min_ns h) (max_ns h)
    (String.concat ", "
       (List.map (fun (le, n) -> Printf.sprintf "[%.0f, %d]" le n) (cumulative_buckets h)))

(* --- named-histogram registry --- *)

type registry = (string, histogram) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

let observe_in (reg : registry) name ns =
  let h =
    match Hashtbl.find_opt reg name with
    | Some h -> h
    | None ->
      let h = create_histogram () in
      Hashtbl.add reg name h;
      h
  in
  observe h ns

let histograms (reg : registry) =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Unregister one named histogram (e.g. when its trigger is dropped) so
   the registry doesn't accumulate series for dead triggers forever. *)
let remove_in (reg : registry) name = Hashtbl.remove reg name

(* --- metric families: declared once, rendered three ways ---

   A family is a metric name, a kind, and a reader returning the current
   (label, value) samples from the store that owns them.  Layers declare
   their families once; Prometheus text, JSON and aligned text are all
   rendered from the same declarations, read at render time only, so the
   exports cannot drift apart and recording sites stay untouched. *)

type kind = Counter | Gauge | Histogram

type value = Int of int | Float of float | Hist of histogram

type family = {
  name : string;
  kind : kind;
  samples : unit -> (string * value) list;
}

let ints kind name read =
  { name; kind; samples = (fun () -> List.map (fun (l, v) -> (l, Int v)) (read ())) }

let counter = ints Counter
let gauge = ints Gauge

let gauge_f name read =
  { name;
    kind = Gauge;
    samples = (fun () -> List.map (fun (l, v) -> (l, Float v)) (read ()));
  }

(* Histogram samples come out sorted by label. *)
let histogram name read =
  { name;
    kind = Histogram;
    samples =
      (fun () ->
        List.map (fun (l, h) -> (l, Hist h)) (read ())
        |> List.sort (fun (a, _) (b, _) -> compare a b));
  }

(* --- Prometheus text exposition format ---

   Histogram names like "firing:g0:product" are not legal metric names, so
   every sample carries its label as {name="..."}.  Histogram buckets are
   {!cumulative_buckets}.  A counter or gauge family
   without samples is left out; a histogram family always announces its
   TYPE. *)

let prometheus_escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus_histogram buf ~metric ~lbl h =
  List.iter
    (fun (le, cum) ->
      Printf.bprintf buf "%s_bucket{name=\"%s\",le=\"%.0f\"} %d\n" metric lbl le cum)
    (cumulative_buckets h);
  Printf.bprintf buf "%s_bucket{name=\"%s\",le=\"+Inf\"} %d\n" metric lbl h.count;
  Printf.bprintf buf "%s_sum{name=\"%s\"} %.0f\n" metric lbl h.sum_ns;
  Printf.bprintf buf "%s_count{name=\"%s\"} %d\n" metric lbl h.count

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let prometheus families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      match f.kind, f.samples () with
      | (Counter | Gauge), [] -> ()
      | kind, samples ->
        Printf.bprintf buf "# TYPE %s %s\n" f.name (kind_name kind);
        List.iter
          (fun (label, v) ->
            let lbl = prometheus_escape_label label in
            match v with
            | Int n -> Printf.bprintf buf "%s{name=\"%s\"} %d\n" f.name lbl n
            | Float x -> Printf.bprintf buf "%s{name=\"%s\"} %.6g\n" f.name lbl x
            | Hist h -> prometheus_histogram buf ~metric:f.name ~lbl h)
          samples)
    families;
  Buffer.contents buf

(* --- JSON: one object per family, keyed by label --- *)

let json_samples f =
  let value = function
    | Int n -> string_of_int n
    | Float x -> Printf.sprintf "%.6g" x
    | Hist h -> "{" ^ histogram_json_fields h ^ "}"
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (label, v) -> Printf.sprintf "\"%s\": %s" (json_escape label) (value v))
         (f.samples ()))
  ^ "}"

let json families =
  "{"
  ^ String.concat ", "
      (List.map (fun f -> Printf.sprintf "\"%s\": %s" f.name (json_samples f)) families)
  ^ "}"

(* --- aligned text, for humans --- *)

let text families =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Printf.bprintf buf "%s:\n" f.name;
      List.iter
        (fun (label, v) ->
          match v with
          | Int n -> Printf.bprintf buf "  %-32s %d\n" label n
          | Float x -> Printf.bprintf buf "  %-32s %.6g\n" label x
          | Hist h -> Printf.bprintf buf "  %s\n" (render_histogram ~name:label h))
        (f.samples ()))
    families;
  Buffer.contents buf
