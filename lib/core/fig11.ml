(* Fig 11: calibration overhead vs application performance.

   (a) calibration/benchmarking circuit counts vs gate-type count and
   device size (Sec IX model);
   (b) calibration time vs mean application reliability as gate types are
   added (reliability from a small Sycamore QAOA study, as in the
   paper's use of Fig 9/10 data). *)

open Linalg

let panel_a b =
  Report.Builder.subheading b "(a) calibration circuits vs #gate types and device size";
  let rows =
    List.concat_map
      (fun n_qubits ->
        let topology = Isa.Cost.grid_topology n_qubits in
        List.map
          (fun n_types ->
            let cost = Isa.Cost.of_type_count ~topology n_types in
            [
              string_of_int n_qubits;
              string_of_int cost.Isa.Cost.n_pairs;
              string_of_int n_types;
              Printf.sprintf "%.2e" (float_of_int cost.Isa.Cost.circuits);
            ])
          [ 1; 2; 4; 6; 8; 10 ])
      [ 8; 54; 100; 500; 1000 ]
  in
  Report.Builder.table b ~header:[ "qubits"; "pairs"; "types"; "circuits" ] rows;
  let ten_types n_qubits =
    float_of_int
      (Isa.Cost.of_type_count ~topology:(Isa.Cost.grid_topology n_qubits) 10)
        .Isa.Cost.circuits
  in
  Report.Builder.textf b
    "\n54-qubit device, 10 types: %.2e circuits (paper: ~1e7). 1000 qubits:\n\
     %.2e circuits even for 10 types (paper: ~1e9 'nearly a billion').\n"
    (ten_types 54) (ten_types 1000)

let panel_b b cfg =
  Report.Builder.subheading b
    "(b) calibration time vs application reliability (Sycamore QAOA)";
  let rng = Rng.create (cfg.Config.seed + 11) in
  let qaoa = Apps.Qaoa.circuits rng ~count:(max 4 (cfg.Config.qaoa_count / 2)) 4 in
  let device = Device.sycamore_line 6 in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  (* topology-aware cost: a 54-qubit near-square grid; its greedy edge
     coloring yields the model's 4 parallel batches *)
  let topology = Isa.Cost.grid_topology 54 in
  let sets =
    Isa.Set.[ s1; g1; g2; g3; g4; g5; g6; g7 ]
  in
  let rows =
    List.map
      (fun isa ->
        let cost = Isa.Cost.on ~topology isa in
        let r = Study.evaluate_suite ~options ~device ~isa ~metric:Study.Xed qaoa in
        [
          Isa.Set.name isa;
          string_of_int cost.Isa.Cost.n_types;
          Printf.sprintf "%.0f" cost.Isa.Cost.hours_parallel;
          Printf.sprintf "%.2e" (float_of_int cost.Isa.Cost.circuits);
          Report.f4 r.Study.mean_metric;
          Report.f2 r.Study.mean_twoq;
        ])
      sets
  in
  Report.Builder.table b
    ~header:[ "ISA"; "types"; "cal hours"; "cal circuits (54q)"; "QAOA XED"; "2Q gates" ]
    rows;
  Report.Builder.metric b "cal_hours_8types"
    (Isa.Cost.of_type_count ~topology 8).Isa.Cost.hours_parallel;
  Report.Builder.metric b "continuous_overhead_factor_8types"
    (Isa.Cost.continuous_overhead_factor ~n_types:8);
  Report.Builder.textf b
    "\nContinuous-set comparison: the fSim family needs ~%d calibrated types\n\
     (Foxen et al.); an 8-type set saves %.0fx calibration — two orders of\n\
     magnitude — while G7's reliability approaches Full_fSim (Fig 10).\n"
    Isa.Cost.continuous_family_types
    (Isa.Cost.continuous_overhead_factor ~n_types:8)

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 11: calibration overhead vs application performance";
  panel_a b;
  panel_b b cfg;
  Report.Builder.doc b
