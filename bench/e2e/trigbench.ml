(* trigbench: the end-to-end benchmark.

     trigbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
     trigbench --workload NAME --duration 1 --check
     trigbench --repeat N [--seconds S] [--seed N] [--out DIR]
     trigbench compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]

   Options take "--k v" or "--k=v".  See README.md. *)

open E2e

let workloads =
  [ Paper_fire.workload; Fanout_notify.workload; Front_door.workload; Durable_mixed.workload ]

let usage () =
  prerr_endline
    "usage: trigbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--check] [--out DIR]\n\
    \       trigbench --repeat N [--seconds S] [--seed N] [--out DIR]\n\
    \       trigbench compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]\n\
     workloads: paper-fire fanout-notify front-door durable-mixed";
  exit 2

(* "--k=v", "--k v" and bare flags; "--trace" alone means 1. *)
let parse_args args =
  let rec go acc pos = function
    | [] -> (List.rev acc, List.rev pos)
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" -> (
      let a = String.sub a 2 (String.length a - 2) in
      match String.index_opt a '=' with
      | Some i -> go ((String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1)) :: acc) pos rest
      | None -> (
        match (a, rest) with
        | ("check" | "help"), _ -> go ((a, "1") :: acc) pos rest
        | "trace", (("0" | "1") as v) :: rest -> go ((a, v) :: acc) pos rest
        | "trace", _ -> go ((a, "1") :: acc) pos rest
        | _, v :: rest -> go ((a, v) :: acc) pos rest
        | _, [] -> usage ()))
    | a :: rest -> go acc (a :: pos) rest
  in
  go [] [] args

let find_workload name =
  match List.find_opt (fun (w : Harness.workload) -> w.Harness.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "trigbench: unknown workload %S\n" name;
    usage ()

(* The program reads TRIGVIEW_DOMAINS once, at start-up: a workload that
   runs at another domain count re-executes itself with it set. *)
let ensure_domains (w : Harness.workload) =
  let want = string_of_int w.Harness.domains in
  if Sys.getenv_opt "TRIGVIEW_DOMAINS" <> Some want then begin
    let env =
      Array.append
        [| "TRIGVIEW_DOMAINS=" ^ want |]
        (Array.of_list
           (List.filter
              (fun kv -> not (String.starts_with ~prefix:"TRIGVIEW_DOMAINS=" kv))
              (Array.to_list (Unix.environment ()))))
    in
    Unix.execve Sys.executable_name Sys.argv env
  end

let () =
  let opts, pos = parse_args (List.tl (Array.to_list Sys.argv)) in
  let opt k = List.assoc_opt k opts in
  let num k default = match opt k with Some v -> float_of_string v | None -> default in
  let int k default = match opt k with Some v -> int_of_string v | None -> default in
  if opt "help" <> None then usage ();
  let out = Option.value ~default:"_build/bench" (opt "out") in
  let seconds = num "seconds" (num "duration" 30.0) in
  match (pos, opt "repeat", opt "workload") with
  | [ "compare"; parent; change ], _, _ ->
    exit (Repeat.compare ~bounds:(Option.value ~default:"BENCHMARK.json" (opt "bounds")) parent change)
  | [], Some n, None ->
    Repeat.repeat ~runs:(int_of_string n)
      ~workloads:(List.map (fun (w : Harness.workload) -> w.Harness.name) workloads)
      ~seconds ~seed:(int "seed" 1) ~out
  | [], None, Some name ->
    let w = find_workload name in
    ensure_domains w;
    let cfg =
      { Runner.seed = int "seed" 1;
        seconds;
        trace = int "trace" 0 = 1;
        check_only = opt "check" <> None;
        out;
      }
    in
    exit (if Runner.execute w cfg then 0 else 1)
  | _ -> usage ()
