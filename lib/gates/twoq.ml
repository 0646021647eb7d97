(* Two-qubit gate matrices in the paper's conventions (Table I).

   fSim(theta, phi) = [[1, 0,          0,          0],
                       [0, cos t,     -i sin t,    0],
                       [0, -i sin t,   cos t,      0],
                       [0, 0,          0,          e^{-i phi}]]

   XY(theta)        = [[1, 0,          0,          0],
                       [0, cos(t/2),   i sin(t/2), 0],
                       [0, i sin(t/2), cos(t/2),   0],
                       [0, 0,          0,          1]]

   Identities used throughout (Table II header):
   XY(theta) = iSWAP(theta/2) = fSim(theta/2, 0) up to single-qubit
   rotations, and CZ(phi) = fSim(0, phi). *)

open Linalg

let c re im = { Complex.re; im }
let r x = c x 0.0

let fsim theta phi =
  let ct = Float.cos theta and st = Float.sin theta in
  Mat.of_rows
    [
      [ r 1.0; r 0.0; r 0.0; r 0.0 ];
      [ r 0.0; r ct; c 0.0 (-.st); r 0.0 ];
      [ r 0.0; c 0.0 (-.st); r ct; r 0.0 ];
      [ r 0.0; r 0.0; r 0.0; Cplx.cis (-.phi) ];
    ]

let xy theta =
  let ct = Float.cos (theta /. 2.0) and st = Float.sin (theta /. 2.0) in
  Mat.of_rows
    [
      [ r 1.0; r 0.0; r 0.0; r 0.0 ];
      [ r 0.0; r ct; c 0.0 st; r 0.0 ];
      [ r 0.0; c 0.0 st; r ct; r 0.0 ];
      [ r 0.0; r 0.0; r 0.0; r 1.0 ];
    ]

let cphase phi = fsim 0.0 phi

let cz = fsim 0.0 Float.pi
let iswap = fsim (Float.pi /. 2.0) 0.0
let sqrt_iswap = fsim (Float.pi /. 4.0) 0.0
let syc = fsim (Float.pi /. 2.0) (Float.pi /. 6.0)

let swap =
  Mat.of_rows
    [
      [ r 1.0; r 0.0; r 0.0; r 0.0 ];
      [ r 0.0; r 0.0; r 1.0; r 0.0 ];
      [ r 0.0; r 1.0; r 0.0; r 0.0 ];
      [ r 0.0; r 0.0; r 0.0; r 1.0 ];
    ]

let cnot =
  Mat.of_rows
    [
      [ r 1.0; r 0.0; r 0.0; r 0.0 ];
      [ r 0.0; r 1.0; r 0.0; r 0.0 ];
      [ r 0.0; r 0.0; r 0.0; r 1.0 ];
      [ r 0.0; r 0.0; r 1.0; r 0.0 ];
    ]

(* Application interactions (what circuits ask for, not hardware gates). *)

(* exp(-i beta Z(x)Z) = diag(e^{-ib}, e^{ib}, e^{ib}, e^{-ib}) *)
let zz beta =
  let em = Cplx.cis (-.beta) and ep = Cplx.cis beta in
  Mat.of_rows
    [
      [ em; r 0.0; r 0.0; r 0.0 ];
      [ r 0.0; ep; r 0.0; r 0.0 ];
      [ r 0.0; r 0.0; ep; r 0.0 ];
      [ r 0.0; r 0.0; r 0.0; em ];
    ]

(* exp(-i theta (XX+YY)/2): the Fermi-Hubbard hopping interaction; equals
   fSim(theta, 0). *)
let hopping theta = fsim theta 0.0
