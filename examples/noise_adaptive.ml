(* Noise-adaptive compilation across gate types (the Fig 5 mechanism).

     dune exec examples/noise_adaptive.exe

   The same application unitary is decomposed on every edge of the
   Aspen-8 ring with a two-type instruction set; the chosen hardware gate
   follows the per-edge calibration data. *)

open Linalg

let () =
  let rng = Rng.create 2021 in
  let target = Apps.Qv.random_unitary rng in
  let cal = Device.Aspen8.ring_device () in
  let isa = Isa.Set.make "CZ+XY" Gates.Gate_type.[ s3; s4 ] in
  Printf.printf
    "Decomposing one SU(4) unitary on every Aspen-8 ring edge with {CZ, iSWAP}:\n\n";
  Printf.printf "%-8s %-12s %-12s %-22s\n" "edge" "CZ fid" "iSWAP fid" "NuOp choice";
  List.iter
    (fun edge ->
      let a, b = edge in
      let d =
        Compiler.Pass.decompose_on_edge
          ~options:Compiler.Pipeline.default_options ~cal ~isa ~edge ~target
      in
      Printf.printf "(%d,%d)    %-12.3f %-12.3f %s x%d (Fu=%.4f)\n" a b
        (Device.Calibration.twoq_fidelity cal edge Gates.Gate_type.s3)
        (Device.Calibration.twoq_fidelity cal edge Gates.Gate_type.s4)
        (Gates.Gate_type.name d.Decompose.Nuop.gate_type)
        d.Decompose.Nuop.layers
        (Decompose.Nuop.overall_fidelity d))
    (Device.Topology.edges (Device.Calibration.topology cal));
  Printf.printf
    "\nThe same logical operation lowers to different hardware gates on\n\
     different edges — noise adaptivity across gate types (Sec V-B).\n\
     With a single-type instruction set this choice would not exist.\n"
