(* Circuit-level gate: a named unitary with its qubit arity.

   The arity is derived from the matrix dimension (2^k x 2^k -> k). *)

open Linalg

type t = { name : string; matrix : Mat.t; arity : int; params : float array }

let arity_of_dim dim =
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n / 2) in
  let k = log2 0 dim in
  if 1 lsl k <> dim then invalid_arg "Gate.make: dimension is not a power of 2";
  k

let make ?(params = [||]) name matrix =
  let dim = Mat.rows matrix in
  if Mat.cols matrix <> dim then invalid_arg "Gate.make: non-square matrix";
  let arity = arity_of_dim dim in
  if arity < 1 then invalid_arg "Gate.make: empty matrix";
  { name; matrix; arity; params = Array.copy params }

let name t = t.name
let matrix t = t.matrix
let arity t = t.arity
let params t = Array.copy t.params

let u3 alpha beta lambda =
  make
    ~params:[| alpha; beta; lambda |]
    (Printf.sprintf "u3(%.4f,%.4f,%.4f)" alpha beta lambda)
    (Oneq.u3 alpha beta lambda)

let h = make "h" Oneq.h
let x = make "x" Oneq.x
let rx theta = make ~params:[| theta |] (Printf.sprintf "rx(%.4f)" theta) (Oneq.rx theta)
let rz theta = make ~params:[| theta |] (Printf.sprintf "rz(%.4f)" theta) (Oneq.rz theta)

let cz = make "cz" Twoq.cz
let swap = make "swap" Twoq.swap
let cphase phi = make ~params:[| phi |] (Printf.sprintf "cphase(%.4f)" phi) (Twoq.cphase phi)

let fsim theta phi =
  make ~params:[| theta; phi |]
    (Printf.sprintf "fsim(%.4f,%.4f)" theta phi)
    (Twoq.fsim theta phi)

let xy theta = make ~params:[| theta |] (Printf.sprintf "xy(%.4f)" theta) (Twoq.xy theta)
let zz beta = make ~params:[| beta |] (Printf.sprintf "zz(%.4f)" beta) (Twoq.zz beta)

let hopping theta =
  make ~params:[| theta |] (Printf.sprintf "hop(%.4f)" theta) (Twoq.hopping theta)

let su4 ?(label = "su4") matrix =
  if Mat.rows matrix <> 4 || Mat.cols matrix <> 4 then
    invalid_arg "Gate.su4: expected a 4x4 matrix";
  make label matrix
