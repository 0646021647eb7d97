(* Ablation studies for the design decisions DESIGN.md calls out, plus
   the extensions beyond the paper's Table II:

   A. noise adaptivity across gate types ON vs OFF (same gate set)
   B. noise-aware vs fidelity-blind qubit placement
   C. min_layers = 1 (paper) vs 0 (gate elision allowed)
   D. the Lacroix-style continuous CZ(phi) set vs Full_fSim vs G7 on QAOA
   E. recalibration policy under drift: best period & score per #types
   F. readout-error mitigation on/off
   G. parallel calibration batches from real edge coloring
   H. pass stack: default vs the 1Q-merge/elision peepholes
   I. optimizer: BFGS (the paper's choice) vs Nelder-Mead *)

open Linalg

let qaoa_suite cfg rng n = Apps.Qaoa.circuits rng ~count:(max 4 (cfg.Config.qaoa_count / 2)) n

let ablation_adaptivity b cfg rng =
  Report.Builder.subheading b "A. noise adaptivity across gate types (Aspen-8, QAOA, R2)";
  let device = Device.aspen8 () in
  let circuits = qaoa_suite cfg rng 4 in
  let eval adaptive =
    let options =
      { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop; adaptive }
    in
    (Study.evaluate_suite ~options ~device ~isa:Isa.Set.r2 ~metric:Study.Xed circuits)
      .Study.mean_metric
  in
  Report.Builder.table b ~header:[ "selection"; "QAOA XED" ]
    [
      [ "noise-adaptive (paper)"; Report.f4 (eval true) ];
      [ "fidelity-blind"; Report.f4 (eval false) ];
    ]

let ablation_placement b cfg rng =
  Report.Builder.subheading b "B. noise-aware vs first-found placement (Aspen-8, QV, S3)";
  let device = Device.aspen8 () in
  let circuits = Apps.Qv.circuits rng ~count:(max 4 (cfg.Config.qv_count / 2)) 3 in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let eval placement_of =
    let values =
      List.map
        (fun circuit ->
          let placement = placement_of (Qcir.Circuit.n_qubits circuit) in
          let compiled =
            Compiler.Pipeline.compile ~options ~device ~isa:Isa.Set.s3 ~placement
              circuit
          in
          let nm = Compiler.Pipeline.noise_model ~device compiled in
          let ideal = Sim.State.probabilities (Sim.State.run_circuit circuit) in
          let noisy =
            Compiler.Pipeline.logical_probabilities compiled
              (Sim.Noisy.output_probabilities nm compiled.Compiler.Pipeline.circuit)
          in
          Metrics.Hop.probability ~ideal ~noisy)
        circuits
    in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
  in
  let cal = Device.calibration device in
  let aware n = Option.get (Compiler.Mapping.best_line cal Isa.Set.s3 n) in
  let blind n = Option.get (Compiler.Mapping.trivial cal n) in
  Report.Builder.table b ~header:[ "placement"; "QV HOP" ]
    [
      [ "noise-aware best line"; Report.f4 (eval aware) ];
      [ "first line found"; Report.f4 (eval blind) ];
    ]

let ablation_min_layers b cfg rng =
  Report.Builder.subheading b "C. template floor: min_layers 1 (paper) vs 0 (elision allowed)";
  let device = Device.aspen8 () in
  (* weak interactions (small gamma): their Hilbert-Schmidt distance to
     the identity is below Aspen's gate error, so an unconstrained
     approximate pass elides them *)
  let circuits =
    List.map
      (fun inst ->
        Apps.Qaoa.circuit_of_instance { inst with Apps.Qaoa.gamma = 0.22 })
      (List.init 4 (fun _ -> Apps.Qaoa.random_instance rng 4))
  in
  let eval min_layers =
    let options =
      {
        Compiler.Pipeline.default_options with
        nuop = { cfg.Config.nuop with min_layers };
      }
    in
    let r =
      Study.evaluate_suite ~options ~device ~isa:Isa.Set.s3 ~metric:Study.Xed circuits
    in
    (r.Study.mean_metric, r.Study.mean_twoq)
  in
  let x1, g1 = eval 1 and x0, g0 = eval 0 in
  Report.Builder.table b
    ~header:[ "floor"; "QAOA XED"; "2Q gates" ]
    [
      [ "min_layers = 1"; Report.f4 x1; Report.f2 g1 ];
      [ "min_layers = 0"; Report.f4 x0; Report.f2 g0 ];
    ];
  Report.Builder.textf b
    "(with elision allowed the compiler drops weak interactions whose\n\
     Hilbert-Schmidt infidelity is below the hardware error — fewer gates\n\
     but a metric-visible bias)\n"

let ablation_cphase_family b cfg rng =
  Report.Builder.subheading b
    "D. continuous CZ(phi) set (Lacroix et al.) vs Full_fSim vs G7 (Sycamore QAOA)";
  let device = Device.sycamore_line 6 in
  let circuits = qaoa_suite cfg rng 4 in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let rows =
    List.map
      (fun isa ->
        let r = Study.evaluate_suite ~options ~device ~isa ~metric:Study.Xed circuits in
        [
          Isa.Set.name isa;
          Report.f4 r.Study.mean_metric;
          Report.f2 r.Study.mean_twoq;
        ])
      Isa.Set.[ s3; full_cphase; g7; full_fsim ]
  in
  Report.Builder.table b ~header:[ "ISA"; "QAOA XED"; "2Q gates" ] rows;
  Report.Builder.textf b
    "(the controlled-phase family expresses QAOA's ZZ interactions in one\n\
     gate — competitive on QAOA while far cheaper than Full_fSim to\n\
     calibrate, exactly Lacroix et al.'s point)\n"

let ablation_drift b cfg =
  Report.Builder.subheading b "E. recalibration policy under drift (extension of Sec IX)";
  ignore cfg;
  let rng = Rng.create 77 in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.Calibration.Drift.n_types;
          Printf.sprintf "%.0f h" p.Calibration.Drift.period_hours;
          Printf.sprintf "%.0f h" p.Calibration.Drift.calibration_hours;
          Report.f3 p.Calibration.Drift.duty_cycle;
          Report.f2 p.Calibration.Drift.error_multiplier;
          Report.f4 p.Calibration.Drift.effective_fidelity_score;
        ])
      (Calibration.Drift.best_policies ~rng ~type_counts:[ 1; 2; 4; 8; 16; 64 ]
         ~base_error:0.0062 ~gates_per_program:60)
  in
  Report.Builder.table b
    ~header:
      [ "types"; "best period"; "cal time"; "duty cycle"; "err multiplier"; "score" ]
    rows;
  Report.Builder.textf b
    "(drift makes frequent recalibration attractive, but calibration time\n\
     scales with the gate-type count: beyond ~8 types the duty-cycle loss\n\
     overtakes the expressivity gain — the Fig 11 trade-off on the time axis)\n"

let ablation_mitigation b cfg rng =
  Report.Builder.subheading b "F. readout-error mitigation (Sycamore QAOA, G2)";
  let device = Device.sycamore_line 5 in
  let circuits = qaoa_suite cfg rng 4 in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let eval mitigate =
    let values =
      List.map
        (fun circuit ->
          let compiled = Compiler.Pipeline.compile ~options ~device ~isa:Isa.Set.g2 circuit in
          let nm = Compiler.Pipeline.noise_model ~device compiled in
          let raw = Sim.Noisy.output_probabilities nm compiled.Compiler.Pipeline.circuit in
          let n = Array.length compiled.Compiler.Pipeline.qubit_map in
          let probs =
            if mitigate then
              Sim.Mitigation.mitigate_readout
                ~error_rates:
                  (Array.init n (fun q ->
                       Device.Calibration.readout_error (Device.calibration device)
                         compiled.Compiler.Pipeline.qubit_map.(q)))
                raw
            else raw
          in
          let noisy = Compiler.Pipeline.logical_probabilities compiled probs in
          let ideal = Sim.State.probabilities (Sim.State.run_circuit circuit) in
          Metrics.Xed.difference ~ideal ~noisy)
        circuits
    in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
  in
  Report.Builder.table b ~header:[ "post-processing"; "QAOA XED" ]
    [
      [ "raw"; Report.f4 (eval false) ];
      [ "confusion-matrix inversion"; Report.f4 (eval true) ];
    ]

let ablation_pass_stack b cfg rng =
  Report.Builder.subheading b
    "H. pass stack: default vs 1Q-merge/elision peepholes (Aspen-8, QAOA, R2)";
  let device = Device.aspen8 () in
  let circuits = qaoa_suite cfg rng 4 in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let eval stack =
    Study.evaluate_suite ~options ~stack ~device ~isa:Isa.Set.r2 ~metric:Study.Xed
      circuits
  in
  let plain = eval Compiler.Pass.default_stack in
  let opt = eval Compiler.Pass.optimized_stack in
  Report.Builder.table b
    ~header:[ "stack"; "QAOA XED"; "2Q gates"; "SWAPs"; "dur (ns)"; "ESP" ]
    [
      "default (no peepholes)" :: List.tl (Study.result_row plain);
      "+ 1Q-merge + trivial elision" :: List.tl (Study.result_row opt);
    ];
  (* per-pass trace on one representative circuit *)
  let _, metrics =
    Compiler.Pipeline.compile_with_metrics ~options
      ~stack:Compiler.Pass.optimized_stack ~device ~isa:Isa.Set.r2
      (List.hd circuits)
  in
  Study.add_pass_metrics b metrics;
  Report.Builder.textf b
    "(the peepholes fuse the decomposer's back-to-back 1Q layers; the metric\n\
     moves only through the 1Q error model — the circuit unitary is preserved)\n"

let ablation_coloring b =
  Report.Builder.subheading b "G. parallel calibration batches from edge coloring";
  let rows =
    List.map
      (fun (name, topo) ->
        [
          name;
          string_of_int (Device.Topology.edge_count topo);
          string_of_int (Device.Topology.max_degree topo);
          string_of_int (Device.Topology.coloring_classes topo);
        ])
      [
        ("ring-8 (Aspen ring)", Device.Topology.ring 8);
        ("grid 6x9 (Sycamore)", Device.Topology.grid 6 9);
        ("line-20", Device.Topology.line 20);
      ]
  in
  Report.Builder.table b ~header:[ "topology"; "edges"; "max degree"; "batches" ] rows;
  Report.Builder.textf b
    "(the constant 4-batch assumption of Fig 11b matches the grid's true\n\
     edge-chromatic number)\n"

(* One 3-layer SU(4) -> CZ template fitted from one start by each
   optimizer.  Seed 9 fixes the target and the start, so every column but
   the wall time is deterministic. *)
let ablation_optimizer b =
  Report.Builder.subheading b
    "I. optimizer: BFGS vs Nelder-Mead (one SU(4) -> CZ template, 3 layers)";
  let rng = Rng.create 9 in
  let target = Qr.haar_special_unitary rng 4 in
  let template = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  let objective p = Decompose.Template.infidelity template p ~target in
  let x0 =
    Array.init (Decompose.Template.param_count template) (fun _ ->
        Rng.uniform rng (-.Float.pi) Float.pi)
  in
  let bfgs, bfgs_s =
    Obs.Span.timed "ablations.bfgs" (fun () -> Optimize.Bfgs.minimize objective x0)
  in
  let nm, nm_s =
    Obs.Span.timed "ablations.nelder_mead" (fun () ->
        Optimize.Nelder_mead.minimize
          ~options:{ Optimize.Nelder_mead.default_options with max_iter = 20000 }
          objective x0)
  in
  let row name f iterations evaluations seconds =
    [
      name;
      Printf.sprintf "%.2e" f;
      string_of_int iterations;
      string_of_int evaluations;
      Printf.sprintf "%.0f" (1000.0 *. seconds);
    ]
  in
  Report.Builder.table b
    ~header:[ "optimizer"; "infidelity"; "iterations"; "evaluations"; "time (ms)" ]
    [
      row "BFGS" bfgs.Optimize.Bfgs.f bfgs.iterations bfgs.evaluations bfgs_s;
      row "Nelder-Mead" nm.Optimize.Nelder_mead.f nm.iterations nm.evaluations nm_s;
    ]

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Ablations: design decisions and extensions";
  let rng = Rng.create (cfg.Config.seed + 12) in
  ablation_adaptivity b cfg rng;
  ablation_placement b cfg rng;
  ablation_min_layers b cfg rng;
  ablation_cphase_family b cfg rng;
  ablation_drift b cfg;
  ablation_mitigation b cfg rng;
  ablation_pass_stack b cfg rng;
  ablation_coloring b;
  ablation_optimizer b;
  Report.Builder.doc b
