(* Exact density-operator simulator in vectorized (superoperator) form.

   vec(rho) is a state vector on 2n index-qubits: ket qubit q is bit q,
   bra qubit q is bit q+n, so rho_{r,c} sits at index r + (c << n).
   A unitary U on qubits qs applies as U on the ket bits and conj(U) on
   the bra bits (two independent gate applications, O(4^n) each); a Kraus
   channel applies its superoperator matrix to the combined
   (ket, bra) index-qubit group.  This avoids the O(8^n) cost of naive
   rho -> U rho U^dag matrix products. *)

open Linalg

type t = { n_qubits : int; vec : State.t }

let create n_qubits =
  if 2 * n_qubits > State.max_qubits then
    invalid_arg "Density.create: too many qubits for exact simulation";
  (* |0><0| = basis state 0 in the doubled space *)
  { n_qubits; vec = State.create (2 * n_qubits) }

let n_qubits t = t.n_qubits
let copy t = { t with vec = State.copy t.vec }

let get t r c =
  State.amplitude t.vec (r lor (c lsl t.n_qubits))

let trace t =
  let acc = ref Complex.zero in
  for x = 0 to (1 lsl t.n_qubits) - 1 do
    acc := Complex.add !acc (get t x x)
  done;
  !acc

let probability t x = (get t x x).re

let probabilities t = Array.init (1 lsl t.n_qubits) (probability t)

let purity t =
  (* Tr(rho^2) = sum |rho_{rc}|^2 for Hermitian rho *)
  State.norm2 t.vec

let apply_unitary t u qubits =
  State.apply_matrix t.vec u qubits;
  State.apply_matrix t.vec (Mat.conj u) (Array.map (fun q -> q + t.n_qubits) qubits)

let apply_instr t instr =
  apply_unitary t (Gates.Gate.matrix (Qcir.Instr.gate instr)) (Qcir.Instr.qubits instr)

let apply_superoperator t s qubits =
  let doubled =
    Array.append qubits (Array.map (fun q -> q + t.n_qubits) qubits)
  in
  State.apply_matrix t.vec s doubled

let apply_channel t channel qubits =
  apply_superoperator t (Channel.superoperator channel) qubits

let of_statevector sv =
  let n = State.n_qubits sv in
  let t = create n in
  let dim = 1 lsl n in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let a = State.amplitude sv r and b = State.amplitude sv c in
      State.set_amplitude t.vec (r lor (c lsl n)) (Complex.mul a (Complex.conj b))
    done
  done;
  t

(* <psi| rho |psi> for a pure reference state. *)
let fidelity_with_pure t sv =
  assert (State.n_qubits sv = t.n_qubits);
  let dim = 1 lsl t.n_qubits in
  let acc = ref Complex.zero in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let pr = Complex.conj (State.amplitude sv r) in
      let pc = State.amplitude sv c in
      acc := Complex.add !acc (Complex.mul pr (Complex.mul (get t r c) pc))
    done
  done;
  !acc.re

let run_circuit circuit =
  let t = create (Qcir.Circuit.n_qubits circuit) in
  Qcir.Circuit.iter (apply_instr t) circuit;
  t
