(* Table I: the vendor gate families and example gate types. *)

open Linalg

let add_unitary b name m =
  Report.Builder.textf b "\n%s =\n%s\n" name (Mat.to_string m)

let doc ?cfg:(_ = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Table I: current and anticipated two-qubit gate types";
  add_unitary b "CZ = fSim(0, pi)" Gates.Twoq.cz;
  add_unitary b "XY(pi) (Rigetti current)" (Gates.Twoq.xy Float.pi);
  add_unitary b "XY(theta=0.7) (Rigetti anticipated family member)" (Gates.Twoq.xy 0.7);
  add_unitary b "SYC = fSim(pi/2, pi/6) (Google current)" Gates.Twoq.syc;
  add_unitary b "sqrt(iSWAP) = fSim(pi/4, 0) (Google current)" Gates.Twoq.sqrt_iswap;
  add_unitary b "fSim(theta=0.6, phi=1.1) (Google anticipated family member)"
    (Gates.Twoq.fsim 0.6 1.1);
  Report.Builder.subheading b "modelled fidelities";
  Report.Builder.table b
    ~header:[ "vendor"; "gate"; "fidelity model" ]
    [
      [ "Rigetti"; "CZ / XY(pi)"; "per-edge table, 91.0-98.1% (Fig 3)" ];
      [ "Rigetti"; "XY(theta)"; "uniform 95-99% (Sec VI)" ];
      [ "Google"; "SYC & other fSim types"; "N(mu=0.62%, sigma=0.24%) error (Sec VI)" ];
    ];
  Report.Builder.subheading b "family identity checks";
  let id1 =
    Decompose.Weyl.locally_equivalent (Gates.Twoq.xy 0.9) (Gates.Twoq.fsim 0.45 0.0)
  in
  let id2 = Decompose.Weyl.locally_equivalent Gates.Twoq.cz (Gates.Twoq.fsim 0.0 Float.pi) in
  Report.Builder.textf b "XY(theta) ~ fSim(theta/2, 0): %b\nCZ = fSim(0, pi): %b\n" id1 id2;
  Report.Builder.doc b
