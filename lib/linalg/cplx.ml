(* Complex scalar helpers on top of [Stdlib.Complex].

   The hot numerical paths in this project (matrix products, BFGS
   objectives) do not use boxed [Complex.t] values at all — they work on
   interleaved float arrays inside {!Mat}.  This module is the convenient
   boxed representation used at API boundaries, in tests and in
   constructions that are not performance sensitive. *)

type t = Complex.t = { re : float; im : float }

let zero = Complex.zero
let one = Complex.one

let make re im = { re; im }
let re t = t.re
let im t = t.im

let of_float re = { re; im = 0.0 }

let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let conj = Complex.conj
let norm = Complex.norm
let arg = Complex.arg
let polar = Complex.polar

(* e^{i theta} *)
let cis theta = { re = Stdlib.cos theta; im = Stdlib.sin theta }

let scale s t = { re = s *. t.re; im = s *. t.im }

let equal ?(eps = 1e-12) a b =
  Float.abs (a.re -. b.re) <= eps && Float.abs (a.im -. b.im) <= eps

let pp ppf t =
  if t.im >= 0.0 then Fmt.pf ppf "%.6g+%.6gi" t.re t.im
  else Fmt.pf ppf "%.6g-%.6gi" t.re (Float.abs t.im)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
end
