(* Fig 4: the NuOp template circuit, rendered concretely by emitting a
   3-layer template instance as a circuit. *)

open Linalg

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 4: the NuOp template circuit";
  Report.Builder.textf b
    "\nA template with i layers alternates arbitrary single-qubit rotations\n\
     U3(a, b, l) with the target hardware two-qubit gate:\n\n\
    \    L_i . G_i . L_{i-1} . ... . G_1 . L_0\n\n\
     For Full_fSim each G_k carries its own free (theta_k, phi_k).\n\
     A concrete 3-layer fSim-family instance (random angles):\n\n";
  let rng = Rng.create cfg.Config.seed in
  let template = Decompose.Template.create Gates.Gate_type.Fsim_family ~layers:3 in
  let params =
    Array.init (Decompose.Template.param_count template) (fun _ ->
        Rng.uniform rng (-.Float.pi) Float.pi)
  in
  let d =
    {
      Decompose.Nuop.gate_type = Gates.Gate_type.Fsim_family;
      layers = 3;
      params;
      fd = 1.0;
      fh = 1.0;
    }
  in
  Report.Builder.text b
    (Qcir.Printer.render (Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1)));
  Report.Builder.textf b
    "\nParameter count: 6(i+1) single-qubit angles + i x %d gate angles = %d\n"
    (Gates.Gate_type.param_count Gates.Gate_type.Fsim_family)
    (Decompose.Template.param_count template);
  Report.Builder.doc b
