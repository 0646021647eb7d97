(* Circuit-level gate: a named unitary with its qubit arity.

   The arity is derived from the matrix dimension (2^k x 2^k -> k).

   Building a gate formats nothing: the parameterized constructors keep
   only the head of their name beside the full-precision [params], and
   [name] renders head(p1,...,pn), "%.4f" per parameter, on every read.
   There is no memo: shared gates such as [swap] are read from several
   domains at once, and a cache filled on first read would make one
   read allocate more than the next. *)

open Linalg

type label = Given of string | Head of string

type t = { label : label; matrix : Mat.t; arity : int; params : float array }

let arity_of_dim dim =
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n / 2) in
  let k = log2 0 dim in
  if 1 lsl k <> dim then invalid_arg "Gate.make: dimension is not a power of 2";
  k

let build label params matrix =
  let dim = Mat.rows matrix in
  if Mat.cols matrix <> dim then invalid_arg "Gate.make: non-square matrix";
  let arity = arity_of_dim dim in
  if arity < 1 then invalid_arg "Gate.make: empty matrix";
  { label; matrix; arity; params }

let make ?(params = [||]) name matrix = build (Given name) (Array.copy params) matrix

let name t =
  match t.label with
  | Given name -> name
  | Head head ->
    let buf = Buffer.create 32 in
    Buffer.add_string buf head;
    Array.iteri
      (fun k p -> Printf.bprintf buf (if k = 0 then "(%.4f" else ",%.4f") p)
      t.params;
    Buffer.add_char buf ')';
    Buffer.contents buf

let matrix t = t.matrix
let arity t = t.arity
let params t = Array.copy t.params

let u3 alpha beta lambda =
  build (Head "u3") [| alpha; beta; lambda |] (Oneq.u3 alpha beta lambda)

let h = make "h" Oneq.h
let x = make "x" Oneq.x
let rx theta = build (Head "rx") [| theta |] (Oneq.rx theta)
let rz theta = build (Head "rz") [| theta |] (Oneq.rz theta)

let cz = make "cz" Twoq.cz
let swap = make "swap" Twoq.swap
let cphase phi = build (Head "cphase") [| phi |] (Twoq.cphase phi)
let fsim theta phi = build (Head "fsim") [| theta; phi |] (Twoq.fsim theta phi)
let xy theta = build (Head "xy") [| theta |] (Twoq.xy theta)
let zz beta = build (Head "zz") [| beta |] (Twoq.zz beta)
let hopping theta = build (Head "hop") [| theta |] (Twoq.hopping theta)

let su4 ?(label = "su4") matrix =
  if Mat.rows matrix <> 4 || Mat.cols matrix <> 4 then
    invalid_arg "Gate.su4: expected a 4x4 matrix";
  make label matrix
