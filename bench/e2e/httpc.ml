(* A blocking HTTP/1.1 client over one keep-alive connection, plus a reader
   for a server-sent-event stream.  Every wait has a deadline. *)

exception Timeout of string

type conn = { fd : Unix.file_descr; mutable buf : string; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = ""; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Append whatever arrives before [deadline] (monotonic ns); false on
   timeout. *)
let read_more c ~deadline =
  let left = Int64.to_float (Int64.sub deadline (Obs.Trace.now ())) /. 1e9 in
  if left <= 0.0 then false
  else
    match Unix.select [ c.fd ] [] [] left with
    | [], _, _ -> false
    | _ ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then failwith "connection closed by server";
      c.buf <- c.buf ^ Bytes.sub_string c.chunk 0 n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

let consume c n = c.buf <- String.sub c.buf n (String.length c.buf - n)

let rec until c ~deadline ~what parse =
  match parse c.buf with
  | Some v -> v
  | None -> if not (read_more c ~deadline) then raise (Timeout what) else until c ~deadline ~what parse

let header head name =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* One request/response exchange; returns (status, body). *)
let request c ~deadline ~meth ~target ~body =
  send c
    (Printf.sprintf "%s %s HTTP/1.1\r\nhost: trigbench\r\ncontent-length: %d\r\n\r\n%s" meth target
       (String.length body) body);
  until c ~deadline ~what:(meth ^ " " ^ target) (fun buf ->
      match find buf "\r\n\r\n" 0 with
      | None -> None
      | Some he ->
        let head = String.sub buf 0 he in
        let len =
          Option.fold ~none:0 ~some:int_of_string (header head "content-length")
        in
        if String.length buf < he + 4 + len then None
        else begin
          let status = Scanf.sscanf head "HTTP/1.%_d %d" Fun.id in
          let body = String.sub buf (he + 4) len in
          consume c (he + 4 + len);
          Some (status, body)
        end)

(* Open an event stream: send the GET and consume the response head. *)
let open_stream c ~deadline ~target =
  send c (Printf.sprintf "GET %s HTTP/1.1\r\nhost: trigbench\r\n\r\n" target);
  until c ~deadline ~what:("stream " ^ target) (fun buf ->
      match find buf "\r\n\r\n" 0 with
      | None -> None
      | Some he ->
        let status = Scanf.sscanf buf "HTTP/1.%_d %d" Fun.id in
        consume c (he + 4);
        Some status)

(* The data line of the next complete event. *)
let next_event c ~deadline =
  until c ~deadline ~what:"event" (fun buf ->
      match find buf "\n\n" 0 with
      | None -> None
      | Some e ->
        let ev = String.sub buf 0 e in
        consume c (e + 2);
        Some
          (String.split_on_char '\n' ev
          |> List.find_map (fun l ->
                 if String.length l >= 6 && String.sub l 0 6 = "data: " then
                   Some (String.sub l 6 (String.length l - 6))
                 else None)
          |> Option.value ~default:""))
