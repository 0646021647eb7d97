(* Deterministic splittable pseudo-random generator (splitmix64).

   Every experiment in this repository threads one of these generators so
   that results are bit-for-bit reproducible across runs; the global
   [Stdlib.Random] state is never used. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 step (Steele, Lea, Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let child t =
  let seed = next_int64 t in
  { state = seed }

(* splitmix64 finalizer: bijective avalanche mix of one word. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Indexed substream derivation: a pure function of (state, i) that does
   NOT advance the parent, so a parallel map can seed task [i] without
   caring which domain — or in which order — tasks are dispatched.  The
   double mix keeps substreams decorrelated from both each other and the
   parent's own future output. *)
let split t i =
  let z = Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden) in
  { state = mix64 (Int64.logxor (mix64 z) 0x2545F4914F6CDD1DL) }

(* Uniform in [0, 1): use the top 53 bits. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi =
  assert (hi >= lo);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  assert (bound > 0);
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  bits mod bound

let bool t = float t < 0.5

(* Standard normal via Box-Muller; no state caching so that the generator
   stream is insensitive to consumer interleaving. *)
let gaussian t =
  let u1 = Float.max (float t) 1e-300 in
  let u2 = float t in
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

let gaussian_mu_sigma t ~mu ~sigma = mu +. (sigma *. gaussian t)

let shuffle_in_place t arr =
  let n = Array.length arr in
  for k = n - 1 downto 1 do
    let j = int t (k + 1) in
    let tmp = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun k -> k) in
  shuffle_in_place t arr;
  arr
