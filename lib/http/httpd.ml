(* HTTP/1.1 codec over the {!Subscribe.Conn} core, which owns accept,
   buffers, the select loop, the per-connection deadline, slow-consumer
   drops, eviction and the lock.  See httpd.mli for the contract.  The
   connection state machine:

     Reading --request parsed--> (dispatch)
       dispatch -> Respond    -> Draining --outbuf empty--> Reading | close
       dispatch -> Sse        -> Streaming (until EOF / eviction)
       dispatch -> Long_poll  -> Held --publish/deadline--> Draining

   Requests are processed one at a time per connection: a Draining
   connection is not read, so pipelined bytes wait in the kernel. *)

module Replay = Subscribe.Replay
module Conn = Subscribe.Conn

type request = {
  meth : string;
  path : string;
  query : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type action =
  | Respond of response
  | Sse of { channel : string option; cursor : int }
  | Long_poll of { channel : string option; cursor : int }

(* What the connection's one deadline means: Reading — the partial
   request must complete by it (408); Held — the long-poll hold (empty
   batch); Draining / Streaming — queued output must drain by it
   (eviction).  [close]: close the connection once the response drains. *)
type conn_state =
  | Reading
  | Draining of { close : bool }
  | Streaming of string option  (* channel filter *)
  | Held of { channel : string option; cursor : int; close : bool }

type t = {
  core : conn_state Conn.t;
  bound_port : int;
  ring : (string * string) Replay.t;  (* (channel, payload) *)
  mutable handler : request -> action;
  max_inflight : int;
  mutable requests_c : int;
  mutable responses_c : int;
  mutable overloads_c : int;  (* 503s from the admission cap *)
  mutable deadline_aborts_c : int;  (* 408s + expired long-polls *)
  mutable sse_streams_c : int;
  mutable sse_events_c : int;
}

let max_head_bytes = 16 * 1024
let max_headers = 64
let max_body_bytes = 1 lsl 20

let reasons =
  [ (200, "OK"); (201, "Created"); (204, "No Content"); (400, "Bad Request");
    (404, "Not Found"); (405, "Method Not Allowed"); (408, "Request Timeout");
    (409, "Conflict"); (413, "Payload Too Large"); (422, "Unprocessable Entity");
    (431, "Request Header Fields Too Large"); (500, "Internal Server Error");
    (501, "Not Implemented"); (503, "Service Unavailable") ]

let reason status = Option.value ~default:"Status" (List.assoc_opt status reasons)

let create ?(max_inflight = 64) ?deadline_ms ?(retain = 4096)
    ?(max_buffered = 4 * 1024 * 1024) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 128;
  { core = Conn.create ?deadline_ms ~max_buffered fd;
    bound_port =
      (match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port);
    ring = Replay.create ~retain ();
    handler = (fun _ -> Respond { status = 404; headers = []; body = "" });
    max_inflight = max 1 max_inflight;
    requests_c = 0; responses_c = 0; overloads_c = 0; deadline_aborts_c = 0;
    sse_streams_c = 0; sse_events_c = 0 }

let set_handler t h = t.handler <- h
let port t = t.bound_port
let connection_count t = List.length t.core.Conn.conns
let requests t = t.requests_c
let responses t = t.responses_c
let overloads t = t.overloads_c
let deadline_aborts t = t.deadline_aborts_c
let clients_evicted t = t.core.Conn.evicted
let clients_dropped t = t.core.Conn.dropped
let sse_streams t = t.sse_streams_c
let sse_events_sent t = t.sse_events_c
let published t = Replay.published t.ring
let last_gseq t = Replay.last_gseq t.ring
let deadline_ms t = t.core.Conn.deadline_ms
let max_inflight t = t.max_inflight
let buffered_input t = Conn.buffered_input t.core

(* lock-free like the other counters: handlers read it from inside
   [step] (the pumping thread already holds the lock), and a racing
   cross-thread read of the snapshot is benign *)
let inflight t =
  List.fold_left
    (fun acc (c : _ Conn.conn) ->
      match c.state with Streaming _ | Held _ -> acc + 1 | _ -> acc)
    0 t.core.Conn.conns

(* --- responses --- *)

let render_head status headers =
  Printf.sprintf "HTTP/1.1 %d %s\r\n%s\r\n" status (reason status)
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))

(* A response starts the drain deadline afresh. *)
let queue_response t (c : _ Conn.conn) ~close (r : response) =
  t.responses_c <- t.responses_c + 1;
  let headers =
    r.headers
    @ [ ("content-length", string_of_int (String.length r.body));
        ("connection", if close then "close" else "keep-alive") ]
  in
  c.due <- 0L;
  c.state <- Draining { close };
  Conn.send t.core c (render_head r.status headers ^ r.body)

let error_body msg =
  Printf.sprintf "{\"error\": \"%s\"}" (Obs.Metrics.json_escape msg)

let json_headers = [ ("content-type", "application/json") ]

(* A request that failed before dispatch: counted, answered, closed. *)
let fail_request t c status msg =
  t.requests_c <- t.requests_c + 1;
  queue_response t c ~close:true { status; headers = json_headers; body = error_body msg }

(* --- SSE / long-poll over the replay ring --- *)

let channel_matches filter channel =
  match filter with None -> true | Some c -> c = channel

let sse_event ~id ~event data =
  Printf.sprintf "id: %d\nevent: %s\ndata: %s\n\n" id event data

let start_sse t (c : _ Conn.conn) ~channel ~cursor =
  t.sse_streams_c <- t.sse_streams_c + 1;
  let buf = Buffer.create 512 in
  (* an event stream never reverts to keep-alive *)
  Buffer.add_string buf
    (render_head 200
       [ ("content-type", "text/event-stream"); ("cache-control", "no-cache");
         ("connection", "close") ]);
  Option.iter
    (fun oldest ->
      Buffer.add_string buf
        (sse_event ~id:(oldest - 1) ~event:"gap"
           (Printf.sprintf "{\"gap\": true, \"oldest\": %d}" oldest)))
    (Replay.gap_before t.ring ~cursor);
  Replay.iter_from t.ring ~cursor (fun g (ch, payload) ->
      if channel_matches channel ch then begin
        t.sse_events_c <- t.sse_events_c + 1;
        Buffer.add_string buf (sse_event ~id:g ~event:"notification" payload)
      end);
  c.state <- Streaming channel;
  Conn.send t.core c (Buffer.contents buf)

(* Answer a long-poll with the batch of events past its cursor — unless
   the batch is empty and the poll may still be held ([~hold]).  Returns
   whether it answered. *)
let answer_longpoll ?(hold = false) t c ~close ~channel ~cursor =
  let events =
    List.filter_map
      (fun (g, (ch, payload)) ->
        if channel_matches channel ch then
          Some (Printf.sprintf "{\"gseq\": %d, \"data\": %s}" g payload)
        else None)
      (Replay.entries_from t.ring ~cursor)
  in
  if hold && events = [] then false
  else begin
    let cursor' = if events = [] then cursor else Replay.last_gseq t.ring in
    let gap =
      match Replay.gap_before t.ring ~cursor with
      | Some oldest -> Printf.sprintf " \"gap\": true, \"oldest\": %d," oldest
      | None -> ""
    in
    queue_response t c ~close
      { status = 200; headers = json_headers;
        body = Printf.sprintf "{\"cursor\": %d,%s \"events\": [%s]}" cursor' gap
            (String.concat ", " events) };
    true
  end

(* Publish one event: retain, then fan out to matching streams and held
   polls.  Callable from any domain, hence the lock. *)
let publish t ~channel payload =
  Conn.locked t.core @@ fun () ->
  let gseq = Replay.publish t.ring (channel, payload) in
  List.iter
    (fun (c : _ Conn.conn) ->
      match c.state with
      | Streaming filter when channel_matches filter channel ->
        t.sse_events_c <- t.sse_events_c + 1;
        Conn.send t.core c (sse_event ~id:gseq ~event:"notification" payload)
      | Held { channel = filter; cursor; close } when channel_matches filter channel ->
        ignore (answer_longpoll t c ~close ~channel:filter ~cursor)
      | _ -> ())
    t.core.Conn.conns;
  gseq

(* --- request parsing --- *)

type parse_outcome =
  | Incomplete  (* need more bytes *)
  | Bad of int * string  (* error status + message; close the connection *)
  | Parsed of request * int  (* request + total bytes consumed *)

(* Offset of the blank line that ends the request head, scanned in place
   in the connection's unconsumed input. *)
let find_head_end (c : _ Conn.conn) =
  let at i ch = Buffer.nth c.inbuf (c.inpos + i) = ch in
  let rec go i =
    if i + 4 > Conn.pending c then None
    else if at i '\r' && at (i + 1) '\n' && at (i + 2) '\r' && at (i + 3) '\n' then Some i
    else go (i + 1)
  in
  go 0

let parse_header line =
  Option.map
    (fun i ->
      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
    (String.index_opt line ':')

let parse_request (c : _ Conn.conn) =
  match find_head_end c with
  | None ->
    if Conn.pending c > max_head_bytes then Bad (431, "request head too large")
    else Incomplete
  | Some head_end -> (
    let head = Buffer.sub c.inbuf c.inpos head_end in
    let req_line, header_lines =
      match String.split_on_char '\n' head with l :: ls -> (l, ls) | [] -> ("", [])
    in
    match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim req_line)) with
    | [ meth; target; version ]
      when String.starts_with ~prefix:"HTTP/1." version
           && String.for_all
                (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
                meth -> (
      let lines = List.filter (( <> ) "") (List.map String.trim header_lines) in
      let headers = List.filter_map parse_header lines in
      if List.compare_lengths headers lines < 0 then Bad (400, "malformed header line")
      else if List.compare_length_with headers max_headers > 0 then
        Bad (400, "too many headers")
      else if List.mem_assoc "transfer-encoding" headers then
        Bad (501, "transfer-encoding not supported")
      else
        let body_len =
          Option.fold ~none:0 (List.assoc_opt "content-length" headers)
            ~some:(fun v -> Option.value ~default:(-1) (int_of_string_opt (String.trim v)))
        in
        let total = head_end + 4 + body_len in
        let path, query =
          match String.index_opt target '?' with
          | None -> (target, "")
          | Some q -> (String.sub target 0 q, String.sub target (q + 1) (String.length target - q - 1))
        in
        if body_len < 0 then Bad (400, "bad content-length")
        else if body_len > max_body_bytes then Bad (413, "body too large")
        else if Conn.pending c < total then Incomplete
        else if path = "" || path.[0] <> '/' then Bad (400, "bad request target")
        else (
          match Rql.pct_decode path with
          | exception Rql.Error _ -> Bad (400, "bad percent-encoding in path")
          | path ->
            let body = Buffer.sub c.inbuf (c.inpos + head_end + 4) body_len in
            Parsed ({ meth = String.uppercase_ascii meth; path; query; headers; body }, total)))
    | _ -> Bad (400, "malformed request line"))

(* --- dispatch --- *)

let dispatch t c (req : request) =
  t.requests_c <- t.requests_c + 1;
  let close =
    Option.map (fun v -> String.lowercase_ascii (String.trim v))
      (List.assoc_opt "connection" req.headers) = Some "close"
  in
  if inflight t >= t.max_inflight then begin
    t.overloads_c <- t.overloads_c + 1;
    queue_response t c ~close
      { status = 503; headers = ("retry-after", "1") :: json_headers;
        body = error_body "overloaded: too many in-flight requests" }
  end
  else
    match (try t.handler req with e -> Respond
      { status = 500; headers = json_headers;
        body = error_body (Printexc.to_string e) })
    with
    | Respond r -> queue_response t c ~close r
    | Sse { channel; cursor } -> start_sse t c ~channel ~cursor
    | Long_poll { channel; cursor } ->
      if not (answer_longpoll ~hold:true t c ~close ~channel ~cursor) then begin
        c.state <- Held { channel; cursor; close };
        Conn.arm t.core c
      end

(* Process the next complete request of a Reading connection (one: it is
   then Draining until its response is on the wire).  Buffered bytes arm
   the read deadline. *)
let try_process t (c : _ Conn.conn) =
  if Conn.pending c > 0 then begin
    if c.due = 0L then Conn.arm t.core c;
    match parse_request c with
    | Incomplete -> ()
    | Bad (status, msg) -> fail_request t c status msg
    | Parsed (req, consumed) ->
      Conn.consume c consumed;
      c.due <- 0L;  (* the read deadline is met *)
      dispatch t c req
  end

let codec =
  { Conn.initial = Reading;
    on_accept = (fun _ _ -> ());
    wants_input = (fun _ c -> match c.state with Draining _ -> false | _ -> true);
    on_input =
      (fun t c ->
        match c.state with
        | Reading -> try_process t c
        | _ -> Conn.consume c (Conn.pending c)  (* ignore input on upgraded conns *));
    on_drained =
      (fun t c ->
        match c.state with
        | Draining { close = true } -> Conn.close t.core c
        | Draining { close = false } ->
          c.state <- Reading;
          try_process t c  (* pipelined request already buffered? *)
        | _ -> ());
    on_deadline =
      (fun t c ->
        match c.state with
        | Held { channel; cursor; close } ->  (* hold expired: an empty batch *)
          t.deadline_aborts_c <- t.deadline_aborts_c + 1;
          ignore (answer_longpoll t c ~close ~channel ~cursor)
        | Reading ->  (* a partial request stalled: time it out *)
          t.deadline_aborts_c <- t.deadline_aborts_c + 1;
          fail_request t c 408 "request deadline exceeded"
        | Draining _ | Streaming _ -> Conn.evict t.core c  (* output not draining *));
  }

let step ?timeout_ms t = Conn.step ?timeout_ms t.core codec t
let stop t = Conn.stop t.core
