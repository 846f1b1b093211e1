(* Hostile clients against both network servers, through one harness.

   Each client in [clients] runs once against the Unix-socket
   notification sink ({!Subscribe.Server}) and once against the HTTP
   front door ({!Httpfront.Httpd}), both built on the shared connection
   core with a small deadline, and checks that codec's exported
   counters afterwards.  Every client must leave the server with no
   connection open and the process alive. *)

module Server = Subscribe.Server
module Httpd = Httpfront.Httpd

let deadline_ms = 100

type counters = {
  dropped : int;  (* slow consumers over max_buffered *)
  evicted : int;  (* past the drain / hello deadline *)
  aborted : int;  (* HTTP 408s + expired long-polls *)
  connected : int;
}

let none = { dropped = 0; evicted = 0; aborted = 0; connected = 0 }

(* One server under test, behind the codec-independent operations the
   clients need. *)
type target = {
  connect : unit -> Unix.file_descr;  (* non-blocking, small receive window *)
  step : unit -> unit;
  opening : string;  (* subscribes: the hello ack / an SSE request *)
  partial : string;  (* a truncated opening *)
  timed_out : string;  (* in the reply to [partial] once the deadline passes *)
  oversized : string;  (* declares input over 1 MiB *)
  too_large : string;  (* in the reply to [oversized] *)
  request : string;  (* a complete request; its reply contains [reply] *)
  reply : string;
  publish : string -> unit;
  counters : unit -> counters;
  stop : unit -> unit;
}

let connect_to addr domain () =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (* a small receive window, so unread output backs up into the server *)
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd addr;
  Unix.set_nonblock fd;
  fd

let sock_counter = ref 0

let socket_target ~max_buffered =
  incr sock_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trigview_hostile_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let s = Server.create ~deadline_ms ~max_buffered ~path () in
  let hello = Subscribe.Replay.frame_u32 "{\"ack\": 0}" in
  { connect = connect_to (Unix.ADDR_UNIX path) Unix.PF_UNIX;
    step = (fun () -> ignore (Server.step ~timeout_ms:2 s));
    opening = hello;
    partial = String.sub hello 0 2;
    timed_out = "";  (* the socket protocol has no error frames: just a close *)
    oversized = "\x00\x20\x00\x00{\"ack\"";  (* a 2 MiB frame header *)
    too_large = "";
    request = hello;  (* replays what was published before it *)
    reply = "{\"n\": 1}";
    publish = Server.publish s;
    counters =
      (fun () ->
        { dropped = Server.clients_dropped s; evicted = Server.clients_evicted s;
          aborted = 0; connected = Server.client_count s });
    stop = (fun () -> Server.stop s);
  }

let http_target ~max_buffered =
  let h = Httpd.create ~deadline_ms ~max_buffered ~port:0 () in
  Httpd.set_handler h (fun req ->
      if req.Httpd.path = "/sse" then Httpd.Sse { channel = None; cursor = 0 }
      else Httpd.Respond { status = 200; headers = []; body = "ok" });
  { connect = connect_to (Unix.ADDR_INET (Unix.inet_addr_loopback, Httpd.port h)) Unix.PF_INET;
    step = (fun () -> ignore (Httpd.step ~timeout_ms:2 h));
    opening = "GET /sse HTTP/1.1\r\n\r\n";
    partial = "GET /healthz HTTP/1.1\r\nhost:";
    timed_out = "HTTP/1.1 408 Request Timeout";
    oversized = "POST /sql HTTP/1.1\r\ncontent-length: 2097152\r\n\r\n";
    too_large = "HTTP/1.1 413 Payload Too Large";
    request = "GET /ok HTTP/1.1\r\n\r\n";
    reply = "HTTP/1.1 200 OK";
    publish = (fun p -> ignore (Httpd.publish h ~channel:"c" p));
    counters =
      (fun () ->
        { dropped = Httpd.clients_dropped h; evicted = Httpd.clients_evicted h;
          aborted = Httpd.deadline_aborts h; connected = Httpd.connection_count h });
    stop = (fun () -> Httpd.stop h);
  }

(* --- client-side helpers --- *)

let send fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go off
  in
  go 0

let pump t ~ms =
  let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
  while Unix.gettimeofday () < until do
    t.step ()
  done

(* Pump the server and read the client until the server closes it (or
   2 s pass); returns everything read and whether EOF was seen. *)
let read_to_eof t fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 65536 in
  let until = Unix.gettimeofday () +. 2.0 in
  let rec go () =
    if Unix.gettimeofday () > until then false
    else begin
      t.step ();
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> true
      | n -> Buffer.add_subbytes buf chunk 0 n; go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    end
  in
  let eof = go () in
  (Buffer.contents buf, eof)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let big_event = Printf.sprintf "\"%s\"" (String.make 16384 'x')

(* Publish big events, without reading, until [enough] holds or [rounds]
   run out. *)
let flood t ~rounds ~enough =
  let i = ref 0 in
  while !i < rounds && not (enough (t.counters ())) do
    incr i;
    t.publish big_event;
    t.step ()
  done

(* --- the clients --- *)

(* Sends [opening t], then silence: timed out by the deadline. *)
let silence_after opening t =
  let fd = t.connect () in
  send fd (opening t);
  let got, eof = read_to_eof t fd in
  Unix.close fd;
  Alcotest.(check bool) (Printf.sprintf "%S in %S" t.timed_out got) true (contains got t.timed_out);
  Alcotest.(check bool) "closed by the server" true eof

(* A partial opening, then silence. *)
let slowloris = silence_after (fun t -> t.partial)

(* Connects and never sends a byte: the deadline runs from accept. *)
let silent = silence_after (fun _ -> "")

(* An opening that declares more than 1 MiB: refused at the header. *)
let oversized t =
  let fd = t.connect () in
  send fd t.oversized;
  let got, eof = read_to_eof t fd in
  Unix.close fd;
  Alcotest.(check bool) (Printf.sprintf "%S in %S" t.too_large got) true (contains got t.too_large);
  Alcotest.(check bool) "closed by the server" true eof

(* Subscribes, then never reads while events pile up past
   [max_buffered]. *)
let stalled_over_buffer t =
  let fd = t.connect () in
  send fd t.opening;
  pump t ~ms:20;
  flood t ~rounds:2000 ~enough:(fun c -> c.dropped > 0);
  pump t ~ms:20;
  Unix.close fd

(* Subscribes, then never reads: once the kernel buffers are full,
   queued output outlives the deadline. *)
let stalled_past_deadline t =
  let fd = t.connect () in
  send fd t.opening;
  pump t ~ms:20;
  flood t ~rounds:1000 ~enough:(fun c -> c.evicted > 0);
  Unix.close fd

(* Sends a complete request, then shuts down its sending side: it still
   gets the reply, and the server then lets the connection go. *)
let half_closed t =
  t.publish "{\"n\": 1}";
  let fd = t.connect () in
  send fd t.request;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let got, eof = read_to_eof t fd in
  Unix.close fd;
  Alcotest.(check bool) (Printf.sprintf "%S in %S" t.reply got) true (contains got t.reply);
  Alcotest.(check bool) "closed by the server" true eof

(* Subscribes, then shuts down its receiving side and stays connected
   (half-open): the server's writes to it fail with EPIPE on a Unix
   socket, which must close the connection, not kill the process. *)
let half_open t =
  let fd = t.connect () in
  send fd t.opening;
  pump t ~ms:20;
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  flood t ~rounds:1000 ~enough:(fun c -> c.connected = 0);
  Unix.close fd

(* HTTP only (a live socket subscriber idles legitimately): a complete
   request on a keep-alive connection, then silence.  The connection is
   back in Reading once its reply drains, with a fresh read deadline, so
   it is timed out like a silent client after the first reply. *)
let idle_keep_alive t =
  let fd = t.connect () in
  send fd t.request;
  let got, eof = read_to_eof t fd in
  Unix.close fd;
  Alcotest.(check bool) (Printf.sprintf "%S in %S" t.reply got) true (contains got t.reply);
  Alcotest.(check bool) (Printf.sprintf "%S in %S" t.timed_out got) true (contains got t.timed_out);
  Alcotest.(check bool) "closed by the server" true eof

(* (name, client, max_buffered, expected socket counters, expected HTTP
   counters) *)
let clients =
  [ ("slowloris", slowloris, 1 lsl 22, { none with evicted = 1 }, { none with aborted = 1 });
    ("silent client", silent, 1 lsl 22, { none with evicted = 1 }, { none with aborted = 1 });
    ("oversized input", oversized, 1 lsl 22, none, none);
    ("stalled over max_buffered", stalled_over_buffer, 1 lsl 16,
     { none with dropped = 1 }, { none with dropped = 1 });
    ("stalled past the deadline", stalled_past_deadline, 1 lsl 26,
     { none with evicted = 1 }, { none with evicted = 1 });
    ("half-closed", half_closed, 1 lsl 22, none, none);
    ("half-open", half_open, 1 lsl 26, none, { none with evicted = 1 });
  ]

let check_counters want got =
  Alcotest.(check int) "dropped" want.dropped got.dropped;
  Alcotest.(check int) "evicted" want.evicted got.evicted;
  Alcotest.(check int) "deadline aborts" want.aborted got.aborted;
  Alcotest.(check int) "connections left" want.connected got.connected

let case make (name, client, max_buffered, want) =
  Alcotest.test_case name `Quick (fun () ->
      let t = make ~max_buffered in
      Fun.protect ~finally:t.stop (fun () ->
          client t;
          pump t ~ms:20;
          check_counters want (t.counters ())))

let () =
  Alcotest.run "hostile"
    [ ("socket", List.map (fun (n, c, b, s, _) -> case socket_target (n, c, b, s)) clients);
      ( "http",
        List.map (fun (n, c, b, _, h) -> case http_target (n, c, b, h)) clients
        @ [ case http_target
              ("idle keep-alive", idle_keep_alive, 1 lsl 22, { none with aborted = 1 }) ] );
    ]
