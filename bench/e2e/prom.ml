(* Reading program counters from Prometheus text exposition — the only
   form in which the benchmark consumes the program's own counters, so it
   keeps working when the stores behind them change. *)

type sample = { metric : string; labels : (string * string) list; value : float }

let parse_labels s =
  (* [s] is the text between the braces: comma-separated key, '=', and a
     double-quoted value with backslash escapes *)
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let eq = String.index_from s i '=' in
      let key = String.sub s i (eq - i) in
      let b = Buffer.create 16 in
      let rec value j =
        match s.[j] with
        | '\\' ->
          Buffer.add_char b (if s.[j + 1] = 'n' then '\n' else s.[j + 1]);
          value (j + 2)
        | '"' -> j + 1
        | c ->
          Buffer.add_char b c;
          value (j + 1)
      in
      let next = value (eq + 2) in
      let next = if next < n && s.[next] = ',' then next + 1 else next in
      go next ((key, Buffer.contents b) :: acc)
  in
  go 0 []

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           let sp = String.rindex line ' ' in
           let head = String.sub line 0 sp in
           let value = float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
           match String.index_opt head '{' with
           | None -> Some { metric = head; labels = []; value }
           | Some br ->
             Some
               { metric = String.sub head 0 br;
                 labels = parse_labels (String.sub head (br + 1) (String.length head - br - 2));
                 value;
               })

let matches ?name metric s =
  s.metric = metric
  && match name with None -> true | Some n -> List.assoc_opt "name" s.labels = Some n

(* Sum of a family's values, optionally restricted to one [name] label. *)
let sum ?name samples metric =
  List.fold_left (fun acc s -> if matches ?name metric s then acc +. s.value else acc) 0.0 samples

(* Per-name values of a family. *)
let by_name samples metric =
  List.filter_map
    (fun s -> if s.metric = metric then Option.map (fun n -> (n, s.value)) (List.assoc_opt "name" s.labels) else None)
    samples

(* Cumulative buckets (upper bound, count) of one histogram series. *)
let buckets samples metric name =
  List.filter_map
    (fun s ->
      if matches ~name (metric ^ "_bucket") s then
        match List.assoc_opt "le" s.labels with
        | Some "+Inf" | None -> None
        | Some le -> Some (float_of_string le, s.value)
      else None)
    samples

(* Percentile [q] of the observations a histogram series gained between two
   scrapes, as the geometric midpoint of the power-of-two bucket holding the
   rank; 0 when it gained none.  Buckets above the highest occupied one are
   elided from the text, so a missing bound counts everything. *)
let delta_percentile ~before ~after metric name q =
  let count samples = sum ~name samples (metric ^ "_count") in
  let n = count after -. count before in
  if n <= 0.0 then 0.0
  else begin
    let b0 = buckets before metric name in
    let top0 = List.fold_left (fun m (le, _) -> Float.max m le) 0.0 b0 in
    let cum0 le =
      match List.assoc_opt le b0 with
      | Some v -> v
      | None -> if le > top0 then count before else 0.0
    in
    let rank = Float.ceil (q *. n) in
    match
      List.find_opt (fun (le, v) -> v -. cum0 le >= rank)
        (List.sort compare (buckets after metric name))
    with
    | Some (le, _) -> le /. Float.sqrt 2.0
    | None -> 0.0
  end

let delta_count ~before ~after metric name =
  sum ~name after (metric ^ "_count") -. sum ~name before (metric ^ "_count")
