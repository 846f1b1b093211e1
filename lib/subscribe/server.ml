(* Unix-domain-socket notification server: a codec over the {!Conn}
   core, which owns accept, buffers, the select loop, the per-connection
   deadline, slow-consumer drops, eviction and the lock.

   Wire protocol, both directions: length-prefixed frames — a 4-byte
   big-endian payload length followed by that many bytes of UTF-8 JSON
   ({!Replay.frame_u32}).

   Server -> client frames carry one notification each, wrapped with the
   server's global publication sequence:

     {"gseq": 17, "payload": {"subscription": ..., "seq": ..., ...}}

   Client -> server frames are acks: {"ack": N} with N a gseq.  The ack is
   a *cursor*: a client's first frame after connecting must be an ack
   naming the last gseq it has safely consumed (0 for a fresh client).  On
   that hello the server replays every retained notification above the
   cursor, then streams live — at-least-once delivery across reconnects,
   bounded by the retention ring ([retain] notifications; a client further
   behind than that gets the oldest retained data and a "gap" marker frame
   {"gap": true, "oldest": G} first).  Retention and replay live in the
   transport-agnostic {!Replay} core shared with the HTTP SSE sink.

   The connection's one deadline ([deadline_ms], default: the
   TRIGVIEW_REQUEST_DEADLINE_MS knob) means the hello deadline until the
   first ack, then the write-drain deadline; either way a client past it
   is evicted ([clients_evicted]).  A client whose queued output exceeds
   [max_buffered] bytes is dropped ([clients_dropped]); it can reconnect
   and resync via its ack cursor. *)

type state = Hello | Live  (* Live: saw the hello ack; live frames flow *)

type t = {
  path : string;
  core : state Conn.t;
  ring : string Replay.t;  (* retained payloads, keyed by gseq *)
  mutable frames_sent : int;
}

let create ?(retain = 4096) ?(max_buffered = 4 * 1024 * 1024) ?deadline_ms
    ~path () =
  (if Sys.file_exists path then
     match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> Sys.remove path  (* stale socket from a dead server *)
     | _ -> invalid_arg (Printf.sprintf "Server.create: %s exists and is not a socket" path));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  { path; core = Conn.create ?deadline_ms ~max_buffered fd;
    ring = Replay.create ~retain (); frames_sent = 0 }

let path t = t.path
let client_count t = List.length t.core.Conn.conns
let published t = Replay.published t.ring
let frames_sent t = t.frames_sent
let clients_dropped t = t.core.Conn.dropped
let clients_evicted t = t.core.Conn.evicted
let deadline_ms t = t.core.Conn.deadline_ms
let last_gseq t = Replay.last_gseq t.ring

let send_frame t c payload =
  t.frames_sent <- t.frames_sent + 1;
  Conn.send t.core c (Replay.frame_u32 payload)

let wrapped gseq payload =
  Printf.sprintf "{\"gseq\": %d, \"payload\": %s}" gseq payload

(* Replay everything retained above [cursor] to a (re)connecting client. *)
let replay t c ~cursor =
  Option.iter
    (fun oldest -> send_frame t c (Printf.sprintf "{\"gap\": true, \"oldest\": %d}" oldest))
    (Replay.gap_before t.ring ~cursor);
  Replay.iter_from t.ring ~cursor (fun g payload ->
      send_frame t c (wrapped g payload))

(* Publish one notification payload: retain it and send it to every greeted
   client.  Ungreeted clients get it from their hello replay instead —
   sending it twice would break the "frames arrive in gseq order" contract. *)
let publish t payload =
  Conn.locked t.core @@ fun () ->
  let gseq = Replay.publish t.ring payload in
  List.iter
    (fun c -> if c.Conn.state = Live then send_frame t c (wrapped gseq payload))
    t.core.Conn.conns

(* The value of {"ack": N}, the only client->server frame: the
   non-negative integer that follows a ["ack":] key.  [None] for any
   other frame, which is ignored (forward compatibility). *)
let parse_ack p =
  let n = String.length p in
  let rec skip i = if i < n && String.contains " \t\r\n" p.[i] then skip (i + 1) else i in
  let rec digits i = if i < n && p.[i] >= '0' && p.[i] <= '9' then digits (i + 1) else i in
  let rec find i =
    if i + 5 > n then None
    else
      let colon = skip (i + 5) in
      let first = skip (colon + 1) in
      let last = digits first in
      if String.sub p i 5 = "\"ack\"" && colon < n && p.[colon] = ':' && last > first
         && (last = n || String.contains " \t\r\n,}" p.[last])
      then int_of_string_opt (String.sub p first (last - first))
      else find (i + 1)
  in
  find 0

(* Handle every complete frame in the client's input. *)
let rec on_input t (c : state Conn.conn) =
  let avail = Conn.pending c in
  if avail >= 4 then begin
    let byte i = Char.code (Buffer.nth c.inbuf (c.inpos + i)) in
    let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    if len > 1 lsl 20 then Conn.close t.core c  (* oversized / corrupt frame header *)
    else if avail >= 4 + len then begin
      let payload = Buffer.sub c.inbuf (c.inpos + 4) len in
      Conn.consume c (4 + len);
      (match parse_ack payload with
      | Some cursor when c.state = Hello ->
        c.state <- Live;
        c.due <- 0L;  (* the hello deadline is met *)
        replay t c ~cursor
      | _ -> ());
      on_input t c
    end
  end

let codec =
  { Conn.initial = Hello; on_input;
    on_accept = (fun t c -> Conn.arm t.core c);  (* the hello deadline *)
    wants_input = (fun _ _ -> true); on_drained = (fun _ _ -> ());
    on_deadline = (fun t c -> Conn.evict t.core c) }

let step ?timeout_ms t = Conn.step ?timeout_ms t.core codec t

let stop t =
  Conn.stop t.core ~finally:(fun () -> try Sys.remove t.path with Sys_error _ -> ())
