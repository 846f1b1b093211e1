(* Transport-agnostic retained-ring replay core.

   Factored out of the Unix-socket server so every delivery transport —
   length-prefixed socket frames, HTTP server-sent events, long-poll —
   shares one publication-sequence / retention / replay implementation.

   Semantics (unchanged from the socket server that originated them):

   - every published entry gets the next global sequence number
     ([gseq], 1-based);
   - the last [retain] entries are kept in a ring;
   - a client that reconnects with an ack cursor C is replayed every
     retained entry with gseq > C, in order; if C+1 has already been
     evicted the caller is told the oldest retained gseq first so it
     can emit a transport-appropriate gap marker.

   Not thread-safe by itself: both owners (the socket server and the
   HTTP server) touch their ring only under the lock of their shared
   connection core ({!Conn.locked}), which serializes publish, step and
   stop. *)

type 'a t = {
  ring : (int * 'a) option array;  (* (gseq, entry) slots *)
  cap : int;
  mutable gseq : int;  (* last published global sequence number *)
  mutable published : int;  (* lifetime publish count *)
}

let create ?(retain = 4096) () =
  let cap = max 1 retain in
  { ring = Array.make cap None; cap; gseq = 0; published = 0 }

let capacity t = t.cap
let last_gseq t = t.gseq
let published t = t.published

(* Retain [v] under the next gseq and return it. *)
let publish t v =
  t.gseq <- t.gseq + 1;
  t.published <- t.published + 1;
  t.ring.((t.gseq - 1) mod t.cap) <- Some (t.gseq, v);
  t.gseq

(* Oldest gseq still guaranteed retained; 1 while nothing has been
   evicted yet. *)
let oldest_retained t = max 1 (t.gseq - min t.gseq t.cap + 1)

(* [Some oldest] when [cursor] is further behind than retention reaches:
   the client must be told about the gap before any replay. *)
let gap_before t ~cursor =
  let oldest = oldest_retained t in
  if cursor + 1 < oldest && t.gseq > 0 then Some oldest else None

(* Visit every retained entry above [cursor], in gseq order. *)
let iter_from t ~cursor f =
  for g = max (cursor + 1) (oldest_retained t) to t.gseq do
    match t.ring.((g - 1) mod t.cap) with
    | Some (g', v) when g' = g -> f g v
    | _ -> ()
  done

let entries_from t ~cursor =
  let acc = ref [] in
  iter_from t ~cursor (fun g v -> acc := (g, v) :: !acc);
  List.rev !acc

(* The socket transport's framing: 4-byte big-endian payload length,
   then the payload bytes.  Shared here so tests and any future framed
   transport agree with the server on the wire format. *)
let frame_u32 payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b
