(* Hardware two-qubit gate types, as NuOp sees them.

   A gate type is either a fixed 4x4 unitary (one calibrated instruction)
   or a continuous family whose angles become extra optimization
   variables in NuOp's Full_XY / Full_fSim modes (Sec V-A). *)

open Linalg

type t =
  | Fixed of { name : string; unitary : Mat.t }
  | Fsim_family  (** fSim(theta, phi), both angles free *)
  | Xy_family  (** XY(theta), one free angle *)
  | Cphase_family
      (** CZ(phi), one free angle — the continuous controlled-phase set
          of Lacroix et al. discussed in Sec III *)

let fixed name unitary =
  if Mat.rows unitary <> 4 || Mat.cols unitary <> 4 then
    invalid_arg "Gate_type.fixed: expected a 4x4 unitary";
  Fixed { name; unitary }

let name = function
  | Fixed { name; _ } -> name
  | Fsim_family -> "full_fsim"
  | Xy_family -> "full_xy"
  | Cphase_family -> "full_cphase"

let equal a b = String.equal (name a) (name b)

let param_count = function
  | Fixed _ -> 0
  | Fsim_family -> 2
  | Xy_family | Cphase_family -> 1

let instantiate t params =
  match t with
  | Fixed { unitary; _ } ->
    assert (Array.length params = 0);
    unitary
  | Fsim_family ->
    assert (Array.length params = 2);
    Twoq.fsim params.(0) params.(1)
  | Xy_family ->
    assert (Array.length params = 1);
    Twoq.xy params.(0)
  | Cphase_family ->
    assert (Array.length params = 1);
    Twoq.cphase params.(0)

let is_family = function Fixed _ -> false | Fsim_family | Xy_family | Cphase_family -> true

(* The paper's named single-type instruction sets (Table II). *)

let fsim_type theta phi =
  fixed (Printf.sprintf "fsim(%.4f,%.4f)" theta phi) (Twoq.fsim theta phi)

let s1 = fixed "SYC" Twoq.syc (* fSim(pi/2, pi/6) *)
let s2 = fixed "sqrt_iSWAP" Twoq.sqrt_iswap (* fSim(pi/4, 0) *)
let s3 = fixed "CZ" Twoq.cz (* fSim(0, pi) *)
let s4 = fixed "iSWAP" Twoq.iswap (* fSim(pi/2, 0) *)
let s5 = fixed "fsim(pi/3,0)" (Twoq.fsim (Float.pi /. 3.0) 0.0)
let s6 = fixed "fsim(3pi/8,0)" (Twoq.fsim (3.0 *. Float.pi /. 8.0) 0.0)
let s7 = fixed "fsim(pi/6,pi)" (Twoq.fsim (Float.pi /. 6.0) Float.pi)
let swap_type = fixed "SWAP" Twoq.swap
let cnot_type = fixed "CNOT" Twoq.cnot
let xy_pi = fixed "XY(pi)" (Twoq.xy Float.pi)
