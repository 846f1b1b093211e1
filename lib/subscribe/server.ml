(* Unix-domain-socket notification server.

   Single-threaded and step-driven: [step] runs one [select] round —
   accept new clients, read their frames, flush pending output — and
   returns.  The owner (CLI serve loop, tests, an embedding application)
   decides when to pump; nothing here blocks longer than the given timeout,
   so the server composes with a synchronous trigger runtime in one thread.

   Wire protocol, both directions: length-prefixed frames — a 4-byte
   big-endian payload length followed by that many bytes of UTF-8 JSON
   ({!Replay.frame_u32}).

   Server -> client frames carry one notification each, wrapped with the
   server's global publication sequence:

     {"gseq": 17, "payload": {"subscription": ..., "seq": ..., ...}}

   Client -> server frames are acks: {"ack": N} with N a gseq.  The ack is
   a *cursor*: the server remembers, per client identity, the highest acked
   gseq, and a client's first frame after connecting must be an ack naming
   the last gseq it has safely consumed (0 for a fresh client).  On that
   hello the server replays every retained notification above the cursor,
   then streams live — at-least-once delivery across reconnects, bounded by
   the retention ring ([retain] notifications; a client further behind than
   that gets the oldest retained data and a "gap" marker frame
   {"gap": true, "oldest": G} first).  Retention and replay live in the
   transport-agnostic {!Replay} core shared with the HTTP SSE sink.

   A client whose output buffer exceeds [max_buffered] bytes is dropped
   (slow-consumer protection); it can reconnect and resync via its ack
   cursor.  This mirrors the queue layer's [Disconnect] overflow policy one
   level down the stack.  Independently, [deadline_ms] (default: the
   TRIGVIEW_REQUEST_DEADLINE_MS knob) bounds how long a client may sit
   connected without completing its hello ack, and how long queued output
   may sit undrained: both evict the client ([clients_evicted]), the same
   request-deadline hygiene the HTTP front door applies per request.

   Cross-domain use: [publish] may be called from another domain while
   the owning thread pumps [step], so the three entry points that
   touch server state ([publish], [step], [stop]) serialize on one coarse
   mutex.  [step] holds it across its [select] round — publishers stall at
   most one timeout (callers pump with 0–10 ms timeouts); a finer lock is
   not worth the complexity for one publisher + one pump. *)

type client = {
  fd : Unix.file_descr;
  mutable inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable greeted : bool;  (* saw the hello ack; live frames flow after it *)
  mutable acked : int;  (* highest gseq this client acknowledged *)
  mutable closed : bool;
  mutable greet_due : int64;  (* ns deadline for the hello ack; 0 = none *)
  mutable write_due : int64;  (* ns deadline to drain outbuf; 0 = none *)
}

type t = {
  path : string;
  lock : Mutex.t;  (* serializes publish / step / stop across domains *)
  listen_fd : Unix.file_descr;
  mutable clients : client list;
  ring : string Replay.t;  (* retained payloads, keyed by gseq *)
  max_buffered : int;
  deadline_ms : int;  (* 0 disables deadline eviction *)
  mutable frames_sent : int;
  mutable clients_dropped : int;  (* slow consumers disconnected *)
  mutable clients_evicted : int;  (* deadline evictions (hello / stalled write) *)
  mutable stopped : bool;
}

let create ?(retain = 4096) ?(max_buffered = 4 * 1024 * 1024) ?deadline_ms
    ~path () =
  (if Sys.file_exists path then
     match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> Sys.remove path  (* stale socket from a dead server *)
     | _ -> invalid_arg (Printf.sprintf "Server.create: %s exists and is not a socket" path));
  let deadline_ms =
    match deadline_ms with Some ms -> max 0 ms | None -> Obs.Knobs.request_deadline_ms ()
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  { path;
    lock = Mutex.create ();
    listen_fd = fd;
    clients = [];
    ring = Replay.create ~retain ();
    max_buffered;
    deadline_ms;
    frames_sent = 0;
    clients_dropped = 0;
    clients_evicted = 0;
    stopped = false;
  }

let path t = t.path
let client_count t = List.length t.clients
let published t = Replay.published t.ring
let frames_sent t = t.frames_sent
let clients_dropped t = t.clients_dropped
let clients_evicted t = t.clients_evicted
let deadline_ms t = t.deadline_ms
let last_gseq t = Replay.last_gseq t.ring

let deadline_after t =
  Int64.add (Obs.Trace.now ()) (Int64.of_int (t.deadline_ms * 1_000_000))

let close_client t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.clients <- List.filter (fun c' -> c' != c) t.clients
  end

let send_frame t c payload =
  Buffer.add_string c.outbuf (Replay.frame_u32 payload);
  t.frames_sent <- t.frames_sent + 1;
  if t.deadline_ms > 0 && c.write_due = 0L then c.write_due <- deadline_after t;
  if Buffer.length c.outbuf > t.max_buffered then begin
    t.clients_dropped <- t.clients_dropped + 1;
    close_client t c
  end

let wrapped gseq payload =
  Printf.sprintf "{\"gseq\": %d, \"payload\": %s}" gseq payload

(* Replay everything retained above [cursor] to a (re)connecting client. *)
let replay t c ~cursor =
  (match Replay.gap_before t.ring ~cursor with
  | Some oldest ->
    send_frame t c (Printf.sprintf "{\"gap\": true, \"oldest\": %d}" oldest)
  | None -> ());
  Replay.iter_from t.ring ~cursor (fun g payload ->
      send_frame t c (wrapped g payload))

(* Publish one notification payload: retain it and send it to every greeted
   client.  Ungreeted clients get it from their hello replay instead —
   sending it twice would break the "frames arrive in gseq order" contract. *)
let publish t payload =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let gseq = Replay.publish t.ring payload in
  List.iter
    (fun c -> if c.greeted && not c.closed then send_frame t c (wrapped gseq payload))
    t.clients

(* Minimal parse of {"ack": N}: the only client->server frame. *)
let parse_ack payload =
  let rec digits i acc seen =
    if i >= String.length payload then if seen then Some acc else None
    else
      match payload.[i] with
      | '0' .. '9' as ch -> digits (i + 1) ((acc * 10) + (Char.code ch - 48)) true
      | _ -> if seen then Some acc else digits (i + 1) acc false
  in
  let has_ack =
    let rec find i =
      i + 5 <= String.length payload
      && (String.sub payload i 5 = "\"ack\"" || find (i + 1))
    in
    find 0
  in
  if has_ack then digits 0 0 false else None

let handle_frame t c payload =
  match parse_ack payload with
  | Some n ->
    c.acked <- max c.acked n;
    if not c.greeted then begin
      c.greeted <- true;
      c.greet_due <- 0L;
      replay t c ~cursor:c.acked
    end
  | None -> ()  (* unknown frame: ignore (forward compatibility) *)

(* Drain complete frames out of a client's input buffer. *)
let process_inbuf t c =
  let continue = ref true in
  while !continue do
    let data = Buffer.contents c.inbuf in
    let n = String.length data in
    if n < 4 then continue := false
    else
      let len =
        (Char.code data.[0] lsl 24)
        lor (Char.code data.[1] lsl 16)
        lor (Char.code data.[2] lsl 8)
        lor Char.code data.[3]
      in
      if len < 0 || len > 1 lsl 20 then begin
        (* protocol violation: oversized / corrupt frame header *)
        close_client t c;
        continue := false
      end
      else if n < 4 + len then continue := false
      else begin
        let payload = String.sub data 4 len in
        let rest = String.sub data (4 + len) (n - 4 - len) in
        Buffer.clear c.inbuf;
        Buffer.add_string c.inbuf rest;
        handle_frame t c payload
      end
  done

let read_client t c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_client t c  (* orderly EOF *)
  | n ->
    Buffer.add_subbytes c.inbuf buf 0 n;
    process_inbuf t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_client t c

let write_client t c =
  let data = Buffer.contents c.outbuf in
  if data <> "" then
    match Unix.write_substring c.fd data 0 (String.length data) with
    | n ->
      Buffer.clear c.outbuf;
      if n < String.length data then
        Buffer.add_substring c.outbuf data n (String.length data - n)
      else c.write_due <- 0L
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_client t c

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.clients <-
        { fd;
          inbuf = Buffer.create 256;
          outbuf = Buffer.create 1024;
          greeted = false;
          acked = 0;
          closed = false;
          greet_due = (if t.deadline_ms > 0 then deadline_after t else 0L);
          write_due = 0L;
        }
        :: t.clients
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* Evict clients past their hello or write-drain deadline.  Like the
   slow-consumer drop, eviction is not an error for the client: its ack
   cursor survives, so a reconnect resyncs via replay. *)
let enforce_deadlines t =
  if t.deadline_ms > 0 then begin
    let now = Obs.Trace.now () in
    let overdue =
      List.filter
        (fun c ->
          (not c.closed)
          && ((c.greet_due <> 0L && Int64.compare now c.greet_due > 0)
             || (c.write_due <> 0L && Int64.compare now c.write_due > 0)))
        t.clients
    in
    List.iter
      (fun c ->
        t.clients_evicted <- t.clients_evicted + 1;
        close_client t c)
      overdue
  end

(* One cooperative round: wait up to [timeout_ms] for activity, then accept
   / read / write whatever is ready.  Returns the number of fds that were
   ready (0 on a pure timeout), so callers can spin while progress lasts. *)
let step ?(timeout_ms = 0) t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.stopped then 0
  else begin
    let reads = t.listen_fd :: List.map (fun c -> c.fd) t.clients in
    let writes =
      List.filter_map
        (fun c -> if Buffer.length c.outbuf > 0 then Some c.fd else None)
        t.clients
    in
    let timeout = float_of_int (max 0 timeout_ms) /. 1000.0 in
    match Unix.select reads writes [] timeout with
    | rs, ws, _ ->
      if List.mem t.listen_fd rs then accept_pending t;
      List.iter
        (fun c -> if (not c.closed) && List.mem c.fd rs then read_client t c)
        t.clients;
      List.iter
        (fun c -> if (not c.closed) && List.mem c.fd ws then write_client t c)
        t.clients;
      enforce_deadlines t;
      List.length rs + List.length ws
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  end

let stop t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if not t.stopped then begin
    t.stopped <- true;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.clients;
    t.clients <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Sys.remove t.path with Sys_error _ -> ()
  end
