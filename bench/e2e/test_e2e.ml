(* Unit tests for the benchmark's own machinery: span self time on synthetic
   nests, the quartile rule, Prometheus histogram deltas, the comparison of
   two noise-floor files, and the metric list BENCHMARK.json must repeat. *)

open E2e

let span ?(dom = 0) name s e = { Spans.name; note = ""; dom; start_ns = Int64.of_int s; end_ns = Int64.of_int e }

let self_of nodes name =
  Array.fold_left
    (fun acc nd -> if nd.Spans.span.Spans.name = name then Int64.add acc nd.Spans.self_ns else acc)
    0L nodes
  |> Int64.to_int

let parent_of nodes name =
  let nd = Array.to_list nodes |> List.find (fun nd -> nd.Spans.span.Spans.name = name) in
  if nd.Spans.parent < 0 then "-" else nodes.(nd.Spans.parent).Spans.span.Spans.name

let total_self nodes = Array.fold_left (fun acc nd -> acc + Int64.to_int nd.Spans.self_ns) 0 nodes
let int = Alcotest.int

(* The phases-figure bug: a frag.exec inside a plan.exec was summed twice. *)
let test_nested_counted_once () =
  let nodes = Spans.tree [ span "op" 0 100; span "plan.exec" 10 90; span "frag.exec" 20 80 ] in
  Alcotest.check int "frag self" 60 (self_of nodes "frag.exec");
  Alcotest.check int "plan self excludes frag" 20 (self_of nodes "plan.exec");
  Alcotest.check int "self times add up to the op" 100 (total_self nodes)

let test_parent_plus_children () =
  let nodes =
    Spans.tree
      [ span "dml" 0 100; span "trigger" 10 40; span "plan.exec" 12 30; span "trigger" 50 95;
        span "dispatch" 60 70; span "sink" 62 65 ]
  in
  (* each parent's self plus its children's durations is its duration *)
  Array.iteri
    (fun i nd ->
      let kids =
        Array.fold_left
          (fun acc c -> if c.Spans.parent = i then acc + Int64.to_int (Spans.dur c.Spans.span) else acc)
          0 nodes
      in
      Alcotest.check int nd.Spans.span.Spans.name
        (Int64.to_int (Spans.dur nd.Spans.span))
        (Int64.to_int nd.Spans.self_ns + kids))
    nodes;
  Alcotest.check int "sum" 100 (total_self nodes);
  Alcotest.(check string) "sink under dispatch" "dispatch" (parent_of nodes "sink")

let test_unordered_input () =
  let nodes = Spans.tree [ span "frag.exec" 20 80; span "op" 0 100; span "plan.exec" 10 90 ] in
  Alcotest.(check string) "frag under plan" "plan.exec" (parent_of nodes "frag.exec");
  Alcotest.(check string) "plan under op" "op" (parent_of nodes "plan.exec")

let test_identical_intervals () =
  let nodes = Spans.tree [ span "op" 0 50; span "Database.update_pk" 0 50; span "dml" 0 50 ] in
  Alcotest.(check string) "first listed is outer" "op" (parent_of nodes "Database.update_pk");
  Alcotest.(check string) "then nested in order" "Database.update_pk" (parent_of nodes "dml");
  Alcotest.check int "only the innermost has self time" 50 (self_of nodes "dml");
  Alcotest.check int "sum" 50 (total_self nodes)

(* Pool-domain children may overlap each other; the parent subtracts their
   union, not their sum. *)
let test_cross_domain_union () =
  let nodes =
    Spans.tree
      [ span "dml" 0 100; span ~dom:1 "plan.exec" 10 60; span ~dom:2 "plan.exec" 40 90;
        span ~dom:2 "tagger" 50 55 ]
  in
  Alcotest.check int "dml self" 20 (self_of nodes "dml");
  Alcotest.(check string) "tagger under its own domain's plan" "plan.exec" (parent_of nodes "tagger");
  let tagger = Array.to_list nodes |> List.find (fun nd -> nd.Spans.span.Spans.name = "tagger") in
  Alcotest.check int "tagger parent domain" 2 nodes.(tagger.Spans.parent).Spans.span.Spans.dom

let test_sequential_siblings () =
  let nodes = Spans.tree [ span "op" 0 30; span "a" 0 10; span "b" 10 20; span "c" 20 30 ] in
  Alcotest.check int "touching siblings leave no self" 0 (self_of nodes "op");
  Alcotest.(check string) "b is not under a" "op" (parent_of nodes "b")

(* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25];
   statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
let test_quartiles () =
  let q1, q3 = Samples.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  let q1, q3 = Samples.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "q1 of 3" 1.0 q1;
  Alcotest.(check (float 1e-12)) "q3 of 3" 3.0 q3

let test_low_median () =
  let a = Array.init 12 (fun i -> float_of_int (12 - i)) in
  Alcotest.(check (float 1e-12)) "fastest quarter of 12" 2.0 (Samples.low_median a 0.25);
  Alcotest.(check (float 1e-12)) "one of 3 is the minimum" 1.0 (Samples.low_median [| 3.0; 1.0; 2.0 |] 0.25);
  Alcotest.(check (float 1e-12)) "share 1 is the median" 6.5 (Samples.low_median a 1.0)

(* Ten runs each: the change's ops_per_s doubles.  It is a gain, unless the
   change failed more runs than its parent, which makes it worse. *)
let test_compare_failures () =
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  let doc base failed_runs =
    let values = List.init 10 (fun i -> Printf.sprintf "%d" (base + i)) in
    Printf.sprintf
      {|{"workloads": {"w": {"ops_per_s": {"values": [%s], "median": %d}}},
         "failures": {"w": {"failed_runs": %d, "attempted": 100, "failed": 0}}}|}
      (String.concat ", " values) (base + 5) failed_runs
  in
  write "cmp-bounds.json"
    {|{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}|};
  write "cmp-parent.json" (doc 100 0);
  write "cmp-gain.json" (doc 200 0);
  write "cmp-failing.json" (doc 200 1);
  let compare change = Repeat.compare ~bounds:"cmp-bounds.json" "cmp-parent.json" change in
  Alcotest.check int "a gain passes" 0 (compare "cmp-gain.json");
  Alcotest.check int "more failed runs is worse" 1 (compare "cmp-failing.json");
  let vals base = List.init 10 (fun i -> float_of_int (base + i)) in
  Alcotest.(check bool) "the gain is improved" true
    (Repeat.classify ~better:( > ) ~bound:0.1 (vals 100) (vals 200) = Repeat.Improved)

let test_prom_delta () =
  let before =
    Prom.parse
      "# TYPE h histogram\n\
       h_bucket{name=\"wal.fsync\",le=\"2\"} 1\n\
       h_bucket{name=\"wal.fsync\",le=\"+Inf\"} 1\n\
       h_count{name=\"wal.fsync\"} 1\n\
       # TYPE c counter\n\
       c{name=\"a\\\"b\"} 3\n"
  in
  let after =
    Prom.parse
      "h_bucket{name=\"wal.fsync\",le=\"2\"} 1\n\
       h_bucket{name=\"wal.fsync\",le=\"4\"} 1\n\
       h_bucket{name=\"wal.fsync\",le=\"8\"} 4\n\
       h_bucket{name=\"wal.fsync\",le=\"16\"} 5\n\
       h_bucket{name=\"wal.fsync\",le=\"+Inf\"} 5\n\
       h_count{name=\"wal.fsync\"} 5\n\
       c{name=\"a\\\"b\"} 10\n"
  in
  Alcotest.(check (float 1e-9)) "new observations" 4.0 (Prom.delta_count ~before ~after "h" "wal.fsync");
  Alcotest.(check (float 1e-9)) "p50 of the delta" (8.0 /. sqrt 2.0)
    (Prom.delta_percentile ~before ~after "h" "wal.fsync" 0.5);
  Alcotest.(check (float 1e-9)) "p99 of the delta" (16.0 /. sqrt 2.0)
    (Prom.delta_percentile ~before ~after "h" "wal.fsync" 0.99);
  Alcotest.(check (float 1e-9)) "escaped label" 7.0 (Prom.sum ~name:"a\"b" after "c" -. Prom.sum before "c")

(* BENCHMARK.json lists exactly the metrics trigbench prints, in order. *)
let test_benchmark_json () =
  let doc = Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let listed key =
    Json.to_list (Json.member_exn key doc)
    |> List.map (fun m ->
           List.map (fun k -> Json.to_str (Json.member_exn k m)) [ "name"; "unit"; "better" ])
  in
  let ours defs =
    List.map (fun (d : Metric.t) -> [ d.Metric.name; d.Metric.unit_; Metric.better_string d.Metric.better ]) defs
  in
  Alcotest.(check (list (list string))) "end_to_end" (ours Metric.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (list string))) "per_layer" (ours Metric.per_layer) (listed "per_layer")

let () =
  Alcotest.run "e2e"
    [ ( "spans",
        [ Alcotest.test_case "nested program span counted once" `Quick test_nested_counted_once;
          Alcotest.test_case "parent self plus children is duration" `Quick test_parent_plus_children;
          Alcotest.test_case "input order does not matter" `Quick test_unordered_input;
          Alcotest.test_case "identical intervals nest in input order" `Quick test_identical_intervals;
          Alcotest.test_case "cross-domain children subtract their union" `Quick test_cross_domain_union;
          Alcotest.test_case "touching siblings" `Quick test_sequential_siblings;
        ] );
      ( "samples",
        [ Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "median of the fastest quarter" `Quick test_low_median;
        ] );
      ("repeat", [ Alcotest.test_case "failures void a gain" `Quick test_compare_failures ]);
      ("prom", [ Alcotest.test_case "histogram and counter deltas" `Quick test_prom_delta ]);
      ("benchmark.json", [ Alcotest.test_case "metric list" `Quick test_benchmark_json ]);
    ]
