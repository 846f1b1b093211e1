(* Connection core shared by both network servers: the Unix-socket
   notification sink ({!Server}) and the HTTP front door ([Httpd]).

   Single-threaded and step-driven: [step] runs one [select] round —
   accept, read, write, enforce deadlines — and returns.  The owner
   decides when to pump; nothing blocks longer than the given timeout, so
   a server composes with the synchronous trigger runtime in one thread.

   A codec on top gets four callbacks (input arrived, output drained,
   deadline passed, whether it wants input now) and a hook on accept.  A
   connection whose codec does not want input is not read, so a client
   that pipelines faster than it reads waits under TCP backpressure
   instead of growing [inbuf].  A reply queued while reading is written
   in the same round, so a client that half-closes after its request
   still gets the reply before its EOF is read.

   Job hygiene (the watchdog discipline: end work whose requester is
   gone).  Each connection has exactly one deadline ([due]); the codec's
   state says what it means.  [send] arms it on a connection without one,
   a full drain disarms it, and a passed deadline is disarmed before the
   codec hears of it ([evict] counts [evicted]).  A connection whose
   queued output exceeds [max_buffered] bytes is dropped ([dropped]):
   slow-consumer protection, the queue layer's [Disconnect] overflow
   policy one level down.  Neither is an error for the client: its cursor
   survives, so a reconnect resyncs via replay.

   Locking: the servers promise [publish] may be called from any domain,
   so [step], [stop] and their [publish] serialize on one coarse mutex
   ([locked]); codec callbacks run under it.  [step] holds it across its
   [select] — a publisher stalls at most one timeout (callers pump with
   0–10 ms); a finer lock is not worth it for one publisher + one pump. *)

type 'a conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable inpos : int;  (* bytes of [inbuf] the codec has consumed *)
  outbuf : Buffer.t;
  mutable due : int64;  (* ns deadline; 0 = none *)
  mutable closed : bool;
  mutable state : 'a;  (* the codec's *)
}

(* The callbacks receive the codec's server (['s], which holds the core). *)
type ('s, 'a) codec = {
  initial : 'a;  (* state of a fresh connection *)
  on_accept : 's -> 'a conn -> unit;
  wants_input : 's -> 'a conn -> bool;
  on_input : 's -> 'a conn -> unit;  (* bytes were appended to [inbuf] *)
  on_drained : 's -> 'a conn -> unit;  (* [outbuf] emptied onto the wire *)
  on_deadline : 's -> 'a conn -> unit;  (* [due] passed (and was disarmed) *)
}

type 'a t = {
  lock : Mutex.t;
  listen_fd : Unix.file_descr;
  mutable conns : 'a conn list;
  chunk : Bytes.t;  (* read buffer, reused across reads *)
  max_buffered : int;
  deadline_ms : int;  (* 0 disables deadlines *)
  mutable dropped : int;
  mutable evicted : int;
  mutable stopped : bool;
}

let create ?deadline_ms ~max_buffered listen_fd =
  (* a vanished peer must surface as EPIPE, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock listen_fd;
  { lock = Mutex.create (); listen_fd; conns = []; chunk = Bytes.create 65536;
    max_buffered; dropped = 0; evicted = 0; stopped = false;
    deadline_ms =
      Option.fold ~none:(Obs.Knobs.request_deadline_ms ()) ~some:(max 0) deadline_ms }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let arm t c =
  if t.deadline_ms > 0 then
    c.due <- Int64.add (Obs.Trace.now ()) (Int64.of_int (t.deadline_ms * 1_000_000))

let close t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

let evict t c =
  t.evicted <- t.evicted + 1;
  close t c

let send t c data =
  if not c.closed then begin
    Buffer.add_string c.outbuf data;
    if c.due = 0L then arm t c;
    if Buffer.length c.outbuf > t.max_buffered then begin
      t.dropped <- t.dropped + 1;
      close t c
    end
  end

(* Unconsumed input is the [pending] bytes of [inbuf] from [inpos].
   Codecs parse in place and [consume] what they handled, so a buffer of
   many small pipelined messages is not copied once per message. *)
let pending c = Buffer.length c.inbuf - c.inpos

let consume c n =
  c.inpos <- c.inpos + n;
  if c.inpos >= Buffer.length c.inbuf then begin
    Buffer.clear c.inbuf;
    c.inpos <- 0
  end

let buffered_input t = List.fold_left (fun acc c -> acc + pending c) 0 t.conns

let read t codec s c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> close t c  (* orderly EOF *)
  | n ->
    if c.inpos > 0 then begin  (* compact once per read *)
      let rest = Buffer.sub c.inbuf c.inpos (pending c) in
      Buffer.clear c.inbuf; Buffer.add_string c.inbuf rest; c.inpos <- 0
    end;
    Buffer.add_subbytes c.inbuf t.chunk 0 n;
    codec.on_input s c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close t c

(* Write until the socket would block; each full drain lets the codec
   queue more (the next pipelined response). *)
let rec write t codec s c =
  let data = Buffer.contents c.outbuf in
  let n = String.length data in
  if n > 0 then
    match Unix.write_substring c.fd data 0 n with
    | w ->
      Buffer.clear c.outbuf;
      if w < n then Buffer.add_substring c.outbuf data w (n - w)
      else begin
        c.due <- 0L;
        codec.on_drained s c;
        if not c.closed then write t codec s c
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close t c

let rec accept_pending t codec s =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    let c = { fd; inbuf = Buffer.create 512; inpos = 0; outbuf = Buffer.create 1024;
              due = 0L; closed = false; state = codec.initial } in
    t.conns <- c :: t.conns;
    codec.on_accept s c;
    accept_pending t codec s
  | exception Unix.Unix_error _ -> ()

(* One cooperative round: wait up to [timeout_ms] for activity, then
   accept / read / write whatever is ready and enforce deadlines.  Returns
   the number of fds that were ready (0 on a pure timeout), so callers
   can spin while progress lasts. *)
let step ?(timeout_ms = 0) t codec s =
  locked t @@ fun () ->
  if t.stopped then 0
  else begin
    let fds f = List.filter_map (fun c -> if f c then Some c.fd else None) t.conns in
    let reads = t.listen_fd :: fds (codec.wants_input s) in
    let writes = fds (fun c -> Buffer.length c.outbuf > 0) in
    match Unix.select reads writes [] (float_of_int (max 0 timeout_ms) /. 1000.0) with
    | rs, ws, _ ->
      if List.mem t.listen_fd rs then accept_pending t codec s;
      let ready fds c = (not c.closed) && List.mem c.fd fds in
      List.iter (fun c -> if ready rs c then read t codec s c) t.conns;
      List.iter (fun c -> if ready ws c || ready rs c then write t codec s c) t.conns;
      let now = Obs.Trace.now () in
      let overdue c = (not c.closed) && c.due <> 0L && Int64.compare now c.due > 0 in
      List.iter (fun c -> if overdue c then (c.due <- 0L; codec.on_deadline s c)) t.conns;
      List.length rs + List.length ws
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  end

let stop ?(finally = ignore) t =
  locked t @@ fun () ->
  if not t.stopped then begin
    t.stopped <- true;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    t.conns <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    finally ()
  end
