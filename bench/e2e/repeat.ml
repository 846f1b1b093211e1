(* Noise floor and comparison.

   [repeat] runs every workload [runs] times, one process per run, rotating
   the workload order each round and giving round i the seed [seed + i],
   and writes each metric's values, median, quartiles, spread (IQR over
   median) and suggested bound, max(3 x spread, 2%) capped at 25%, to
   <out>/repeat.json.  [compare] reads two such files, a parent's and a
   change's, and classifies every (workload, metric) pair with the bounds
   from BENCHMARK.json and the rule for claiming a gain: at least 10 pairs,
   the change better in at least 9 of 10, and the medians further apart than
   the parent's interquartile range.  Failures are recorded too: a change
   that fails more than its parent is worse, and none of its gains count. *)

let run_child ~workload ~seed ~seconds ~out =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; "0"; "--out"; out |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let text = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let last =
    String.split_on_char '\n' (String.trim text) |> List.rev |> function l :: _ -> l | [] -> ""
  in
  match Json.parse last with
  | result -> Some (result, status = Unix.WEXITED 0 && Json.member "correct" result = Some (Json.Bool true))
  | exception Json.Error _ -> None

let rotate l i =
  let n = List.length l in
  List.init n (fun k -> List.nth l ((k + i) mod n))

let summary values =
  let a = Array.of_list values in
  let med = Samples.median_of a in
  let q1, q3 = Samples.quartiles a in
  let spread = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
  Json.Obj
    [ ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("spread", Json.Num spread);
      ("bound", Json.Num (Float.min 0.25 (Float.max 0.02 (3.0 *. spread))));
    ]

(* Per workload: failed runs, and operations attempted and failed over all
   runs that printed a result. *)
type failures = { mutable failed_runs : int; mutable attempted : float; mutable failed : float }

let repeat ~runs ~workloads ~seconds ~seed ~out =
  Harness.mkdir_p out;
  let values = Hashtbl.create 64 in
  let failures = List.map (fun w -> (w, { failed_runs = 0; attempted = 0.0; failed = 0.0 })) workloads in
  for i = 0 to runs - 1 do
    List.iter
      (fun w ->
        let f = List.assoc w failures in
        (match run_child ~workload:w ~seed:(seed + i) ~seconds ~out with
        | None -> f.failed_runs <- f.failed_runs + 1
        | Some (result, ok) ->
          let count k = Json.to_num (Json.member_exn k result) in
          f.attempted <- f.attempted +. count "attempted";
          f.failed <- f.failed +. count "failed";
          if not ok then f.failed_runs <- f.failed_runs + 1
          else
            List.iter
              (fun (m, v) ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt values (w, m)) in
                Hashtbl.replace values (w, m) (prev @ [ Json.to_num (Json.member_exn "value" v) ]))
              (Json.to_obj (Json.member_exn "metrics" result)));
        Printf.eprintf "repeat %d/%d %s done\n%!" (i + 1) runs w)
      (rotate workloads i)
  done;
  let doc =
    Json.Obj
      [ ("runs", Json.Num (float_of_int runs));
        ("seconds", Json.Num seconds);
        ("seed", Json.Num (float_of_int seed));
        ( "workloads",
          Json.Obj
            (List.map
               (fun w ->
                 ( w,
                   Json.Obj
                     (List.filter_map
                        (fun (d : Metric.t) ->
                          Option.map
                            (fun vs -> (d.Metric.name, summary vs))
                            (Hashtbl.find_opt values (w, d.Metric.name)))
                        Metric.end_to_end) ))
               workloads) );
        ( "failures",
          Json.Obj
            (List.map
               (fun (w, f) ->
                 ( w,
                   Json.Obj
                     [ ("failed_runs", Json.Num (float_of_int f.failed_runs));
                       ("attempted", Json.Num f.attempted);
                       ("failed", Json.Num f.failed);
                     ] ))
               failures) );
      ]
  in
  let path = Filename.concat out "repeat.json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
  Printf.printf "%-14s %-14s %12s %12s %12s %8s\n" "workload" "metric" "median" "q1" "q3" "spread";
  List.iter
    (fun (w, ms) ->
      List.iter
        (fun (m, s) ->
          let f k = Json.to_num (Json.member_exn k s) in
          Printf.printf "%-14s %-14s %12.4f %12.4f %12.4f %7.2f%%\n" w m (f "median") (f "q1") (f "q3")
            (100.0 *. f "spread"))
        (Json.to_obj ms))
    (Json.to_obj (Json.member_exn "workloads" doc));
  let failed_runs = List.fold_left (fun acc (_, f) -> acc + f.failed_runs) 0 failures in
  Printf.printf "wrote %s (%d failed runs, left out)\n" path failed_runs;
  exit (if failed_runs = 0 then 0 else 1)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* One (workload, metric) pair: [better a b] says a reads better than b. *)
let classify ~better ~bound parent change =
  let p = Array.of_list parent and c = Array.of_list change in
  let mp = Samples.median_of p and mc = Samples.median_of c in
  let q1, q3 = Samples.quartiles p in
  let pairs = min (Array.length p) (Array.length c) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better c.(i) p.(i) then incr wins
  done;
  let worse_by = if mp = 0.0 then 0.0 else (if better mp mc then Float.abs (mc -. mp) else 0.0) /. Float.abs mp in
  let all_better = Array.for_all (fun x -> Array.for_all (fun y -> better x y) p) c in
  if pairs >= 10 && 10 * !wins >= 9 * pairs && Float.abs (mc -. mp) > q3 -. q1 && better mc mp then
    Improved
  else if worse_by > bound then Worse
  else if mp <> 0.0 && (q3 -. q1) /. Float.abs mp > bound && not all_better then Unresolved
  else Unchanged

let load path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

(* A workload's failed runs and its failed share of operations; a file
   without failure counts reads as failure-free. *)
let failure_counts doc w =
  match Option.bind (Json.member "failures" doc) (Json.member w) with
  | None -> (0.0, 0.0)
  | Some f ->
    let n k = Json.to_num (Json.member_exn k f) in
    (n "failed_runs", if n "attempted" > 0.0 then n "failed" /. n "attempted" else 0.0)

let compare ~bounds parent change =
  let defs = Json.to_list (Json.member_exn "end_to_end" (load bounds)) in
  let parent = load parent and change = load change in
  let worse = ref 0 in
  let line w name p c v =
    if v = Worse then incr worse;
    Printf.printf "%-14s %-14s %12.4f %12.4f  %s\n" w name p c (verdict_string v)
  in
  Printf.printf "%-14s %-14s %12s %12s  %s\n" "workload" "metric" "parent" "change" "verdict";
  List.iter
    (fun (w, pm) ->
      match Json.member w (Json.member_exn "workloads" change) with
      | None -> ()
      | Some cm ->
        let p_runs, p_frac = failure_counts parent w and c_runs, c_frac = failure_counts change w in
        let fails_more = c_runs > p_runs || c_frac > p_frac in
        line w "failed_runs" p_runs c_runs (if c_runs > p_runs then Worse else Unchanged);
        line w "failed_frac" p_frac c_frac (if c_frac > p_frac then Worse else Unchanged);
        List.iter
          (fun d ->
            let name = Json.to_str (Json.member_exn "name" d) in
            let bound = Json.to_num (Json.member_exn "bound" d) in
            let better =
              if Json.to_str (Json.member_exn "better" d) = "higher" then ( > ) else ( < )
            in
            match (Json.member name pm, Json.member name cm) with
            | Some ps, Some cs ->
              let vals s = List.map Json.to_num (Json.to_list (Json.member_exn "values" s)) in
              let v = classify ~better ~bound (vals ps) (vals cs) in
              (* a gain does not count while the change fails more *)
              let v = if fails_more && v = Improved then Unchanged else v in
              let median s = Json.to_num (Json.member_exn "median" s) in
              line w name (median ps) (median cs) v
            | _ -> ())
          defs)
    (Json.to_obj (Json.member_exn "workloads" parent));
  if !worse = 0 then 0 else 1
