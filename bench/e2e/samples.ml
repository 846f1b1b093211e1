(* Growable sample buffers and the order statistics the benchmark reports. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.a 0 t.n

let sorted t =
  let s = to_array t in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let rank s q =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let percentile t q = rank (sorted t) q

let maximum t = if t.n = 0 then 0.0 else Array.fold_left Float.max neg_infinity (to_array t)

let median_of a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The median of the lowest [share] of the values (at least one of them). *)
let low_median a share =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int (Array.length s)))) in
  median_of (Array.sub s 0 (min k (Array.length s)))

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so spreads read the same here as in
   any tool that uses it.  Needs at least two values. *)
let quartiles a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld < 2 then (median_of a, median_of a)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end
