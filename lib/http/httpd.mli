(** Hand-rolled HTTP/1.1 server over [Unix] — the network front door's
    transport layer.

    A codec over {!Subscribe.Conn}, the connection core it shares with
    the Unix-socket notification server ({!Subscribe.Server}):
    single-threaded and step-driven.  [step] runs
    one [select] round — accept, read, parse, dispatch, write — and
    returns; the owner decides when to pump, so the server composes with
    the synchronous trigger runtime in one thread.  [publish] may be
    called from any domain: the core serializes it with [step] and
    [stop] on one coarse mutex.

    The handler (installed with {!set_handler}) is the routing layer; it
    runs inside [step] on the pumping thread, so database reads, DML and
    trigger firings all execute with the same single-threaded discipline
    as the CLI paths.  A handler returns either a complete {!response},
    or upgrades the connection into one of the two subscription
    transports backed by the shared {!Subscribe.Replay} ring:

    - {!constructor:Sse}: the connection becomes a [text/event-stream];
      retained events above the client's cursor are replayed first
      (preceded by a [gap] event when the cursor has fallen out of
      retention), then live events stream as they are published.  Event
      ids are the ring's gseq, so [Last-Event-ID] on reconnect resumes
      with at-least-once semantics.
    - {!constructor:Long_poll}: the connection is held until a matching
      publish or the deadline, then answered with a JSON batch
      [{"cursor": C, "events": [...]}].

    Job hygiene (the basex-utils watchdog discipline, in the core):
    - every connection has one deadline ([deadline_ms], default the
      [TRIGVIEW_REQUEST_DEADLINE_MS] knob): exceeded while reading →
      408, where reading starts at accept and again after each
      keep-alive response, so a silent or idle client is timed out too; while holding a long-poll → empty batch; while draining a
      response or streaming → eviction;
    - a connection is not read while its response drains, so pipelined
      requests wait in the kernel, not in server memory;
    - admission control: when [max_inflight] connections are already
      streaming/held, new requests get 503 with [Retry-After]
      ([overloads] counts them);
    - oversized request lines/headers/bodies → 400/413/431, malformed
      requests → 400, never a crash. *)

type request = {
  meth : string;  (** uppercased: GET, POST, ... *)
  path : string;  (** percent-decoded path, no query string *)
  query : string;  (** raw (undecoded) query string, [""] if none *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;  (** content-type etc.; length is added *)
  body : string;
}

type action =
  | Respond of response
  | Sse of { channel : string option; cursor : int }
      (** stream ring events; [channel = Some c] filters to channel [c],
          [None] streams everything; [cursor] = last gseq already seen *)
  | Long_poll of { channel : string option; cursor : int }
      (** hold until a matching publish or the deadline *)

type t

(** [create ~port ()] listens on 127.0.0.1:[port] ([0] picks an
    ephemeral port — read it back with {!port}).  [deadline_ms] defaults
    from the [TRIGVIEW_REQUEST_DEADLINE_MS] knob; [0] disables
    deadlines.  [retain] bounds the SSE replay ring, [max_buffered] the
    per-connection output buffer, [max_inflight] the admission cap on
    concurrently streaming/held connections. *)
val create :
  ?max_inflight:int ->
  ?deadline_ms:int ->
  ?retain:int ->
  ?max_buffered:int ->
  port:int ->
  unit ->
  t

val set_handler : t -> (request -> action) -> unit

(** Bound TCP port (resolves 0 to the ephemeral port actually bound). *)
val port : t -> int

(** Publish one event into the replay ring: appended to every matching
    SSE stream, answers every matching held long-poll.  Callable from
    any domain.  Returns the event's gseq. *)
val publish : t -> channel:string -> string -> int

(** One select round; returns the number of ready fds (0 = idle). *)
val step : ?timeout_ms:int -> t -> int

val stop : t -> unit

(** {2 Counters} *)

val connection_count : t -> int

(** Streaming + held connections. *)
val inflight : t -> int

val requests : t -> int
val responses : t -> int

(** 503s from the admission cap. *)
val overloads : t -> int

(** 408s + expired long-polls. *)
val deadline_aborts : t -> int

(** Drain/stream deadline evictions. *)
val clients_evicted : t -> int

(** Slow consumers over [max_buffered]. *)
val clients_dropped : t -> int

(** Bytes read from clients but not yet consumed, over all connections. *)
val buffered_input : t -> int

(** Lifetime streams opened. *)
val sse_streams : t -> int

val sse_events_sent : t -> int
val published : t -> int
val last_gseq : t -> int
val deadline_ms : t -> int
val max_inflight : t -> int

(** Reason-phrase helper shared with the routing layer. *)
val reason : int -> string
