(* Quickstart: decompose application unitaries into hardware gates with
   NuOp.

     dune exec examples/quickstart.exe

   Shows the three core operations of the library:
   1. exact decomposition of a random SU(4) into a fixed gate type,
   2. approximate (hardware-aware) decomposition under gate errors,
   3. the provable minimal-CNOT lower bound from the Weyl invariants. *)

open Linalg

let () =
  let rng = Rng.create 42 in
  let target = Apps.Qv.random_unitary rng in
  Printf.printf "Target: a Haar-random SU(4) unitary (a Quantum Volume gate)\n";
  Printf.printf "Provable minimal CZ count (Weyl/SBM): %d\n\n"
    (Decompose.Weyl.cnot_count target);

  (* 1. exact decomposition into CZ *)
  let exact = Decompose.Nuop.decompose_exact Gates.Gate_type.s3 ~target in
  Printf.printf "Exact NuOp decomposition into CZ: %d gates, F_d = %.8f\n"
    exact.Decompose.Nuop.layers exact.Decompose.Nuop.fd;
  let circuit = Decompose.Nuop.to_circuit exact ~n_qubits:2 ~qubits:(0, 1) in
  print_string (Qcir.Printer.render circuit);

  (* verify by simulation: the circuit acts like the target *)
  let s = Sim.State.run_circuit circuit in
  let reference = Sim.State.create 2 in
  Sim.State.apply_matrix reference target [| 0; 1 |];
  Printf.printf "Simulated state fidelity vs target: %.8f\n\n"
    (Sim.State.fidelity_pure s reference);

  (* 2. approximate decomposition on a noisy gate (5% error per CZ) *)
  let fh layers = 0.95 ** float_of_int layers in
  let approx = Decompose.Nuop.decompose_approx ~fh Gates.Gate_type.s3 ~target in
  Printf.printf
    "Approximate decomposition at 5%% CZ error: %d gates, F_d = %.4f,\n\
     overall F_u = %.4f (vs %.4f for the exact circuit on the same hardware)\n\n"
    approx.Decompose.Nuop.layers approx.Decompose.Nuop.fd
    (Decompose.Nuop.overall_fidelity approx)
    (exact.Decompose.Nuop.fd *. fh exact.Decompose.Nuop.layers);

  (* 3. the continuous fSim family reaches the same unitary in 2 gates *)
  let full = Decompose.Nuop.decompose_exact Gates.Gate_type.Fsim_family ~target in
  Printf.printf "Continuous fSim family: %d gates, F_d = %.8f\n"
    full.Decompose.Nuop.layers full.Decompose.Nuop.fd;
  Printf.printf
    "\nThat gap (3 fixed gates vs 2 continuous ones) is the expressivity the\n\
     paper trades against calibration cost; run\n\
     `dune exec bin/nuop_cli.exe -- experiment all` to regenerate the full study.\n"
