(* Capacity knobs for the observability layer, overridable through
   TRIGVIEW_* environment variables.  These provide the process-wide
   defaults; `Runtime.tuning` can override them per runtime. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> default)
  | None -> default

(* Like [env_int] but 0 is meaningful (= feature disabled). *)
let env_int0 name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> default)
  | None -> default

let default_trace_ring = 8192
let default_audit_ring = 4096
let default_window_buckets = 12
let default_window_width_ms = 5000
let trace_ring () = env_int "TRIGVIEW_TRACE_RING" default_trace_ring
let audit_ring () = env_int "TRIGVIEW_AUDIT_RING" default_audit_ring

let window_buckets () =
  env_int "TRIGVIEW_WINDOW_BUCKETS" default_window_buckets

let window_width_ms () =
  env_int "TRIGVIEW_WINDOW_WIDTH_MS" default_window_width_ms

(* Per-connection deadline for the network servers (socket hello/write-drain
   eviction, HTTP request/long-poll abort), read once by their connection
   core when no [deadline_ms] is given.  0 disables deadlines. *)
let default_request_deadline_ms = 10_000

let request_deadline_ms () =
  env_int0 "TRIGVIEW_REQUEST_DEADLINE_MS" default_request_deadline_ms
