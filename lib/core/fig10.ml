(* Fig 10: Google Sycamore study.

   (a) QV HOP, (b) QAOA XED (+ Full_fSim at degraded error rates),
   (c) QFT success, (d) FH fidelity across S1-S7 / G1-G7 / Full_fSim;
   (e) QAOA XED without noise variation across gate types;
   (f) FH fidelity at 10/20 qubits vs hardware error rate, S2 vs G7
   (trajectory simulation). *)

open Linalg

let isas = Isa.Set.(google_singles @ google_multis @ [ full_fsim ])

let run_suite b cfg device ~label ~metric circuits ~sets =
  Report.Builder.subheading b label;
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let results =
    List.map
      (fun isa -> Study.evaluate_suite ~options ~device ~isa ~metric circuits)
      sets
  in
  Study.add_results b ~metric results;
  results

(* Full_fSim with its average error rates degraded 1.5x/2x/2.5x — the
   calibration-difficulty sensitivity study on panels a-c. *)
let full_fsim_degraded cfg ~metric circuits scales =
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  List.map
    (fun scale ->
      let device = Device.sycamore_line 6 in
      let device =
        Device.with_calibration device
          (Device.Calibration.with_family_error_scale (Device.calibration device) scale)
      in
      let r =
        Study.evaluate_suite ~options ~device ~isa:Isa.Set.full_fsim ~metric circuits
      in
      (scale, r))
    scales

let print_degraded b label rows =
  Report.Builder.subheading b (label ^ ": Full_fSim under degraded calibration");
  Report.Builder.table b
    ~header:[ "error scale"; "metric"; "2Q gates" ]
    (List.map
       (fun (scale, r) ->
         [
           Printf.sprintf "%.1fx" scale;
           Report.f4 r.Study.mean_metric;
           Report.f2 r.Study.mean_twoq;
         ])
       rows)

(* One panel-f cell: compile the FH step for [isa] on an [n_qubits]
   line at average 2Q error [mu] and estimate its XEB fidelity from
   trajectories; returns the printed fidelity and the 2Q gate count. *)
let panel_f_cell options cfg (n_qubits, mu, isa) =
  let circuit = Apps.Fermi_hubbard.circuit n_qubits in
  (* the sweep scales the whole noise model: 1Q errors stay one order
     of magnitude below 2Q errors, as on the real device *)
  let device = Device.sycamore_line ~mu ~sigma:(mu /. 2.5) ~oneq:(mu /. 6.0) n_qubits in
  let compiled = Compiler.Pipeline.compile ~options ~device ~isa circuit in
  (* isolate the swept variable (gate error): hold decoherence at zero,
     as the paper's error-rate axis does *)
  let nm =
    {
      (Compiler.Pipeline.noise_model ~device compiled) with
      Sim.Noisy.t1 = (fun _ -> infinity);
      t2 = (fun _ -> infinity);
    }
  in
  (* trajectory XEB against the exact-compiled reference *)
  let reference =
    Compiler.Pipeline.compile ~options:{ options with approximate = false } ~device ~isa
      circuit
  in
  let ideal = Sim.State.run_circuit reference.circuit in
  let ideal_self =
    let p = Sim.State.probabilities ideal in
    Metrics.Dist.overlap p p
  in
  let overlap =
    Sim.Trajectory.mean_ideal_overlap ~trajectories:cfg.Config.trajectories nm
      compiled.circuit ~ideal
  in
  let fid =
    Metrics.Xeb.from_overlap
      ~n_qubits:(Qcir.Circuit.n_qubits compiled.circuit)
      ~overlap_noisy_ideal:overlap ~overlap_ideal_ideal:ideal_self
  in
  (Report.f4 fid, compiled.twoq_count)

let panel_f b cfg =
  Report.Builder.subheading b
    "(f) Fermi-Hubbard at 10/20 qubits vs hardware error rate (trajectories)";
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let sets = Isa.Set.[ s2; g7 ] in
  let sweep =
    let n = cfg.Config.fig10f_points in
    List.init n (fun k ->
        0.0002 +. (float_of_int k /. float_of_int (max 1 (n - 1)) *. (0.0036 -. 0.0002)))
  in
  (* every (size, error rate, set) cell compiles and simulates on its
     own, and each trajectory estimate draws from a private Rng, so the
     cells run on the Domain pool and come back in input order, bit for
     bit what a sequential sweep gives *)
  let cells =
    List.concat_map
      (fun n_qubits ->
        List.concat_map (fun mu -> List.map (fun isa -> (n_qubits, mu, isa)) sets) sweep)
      cfg.Config.fh_sizes
  in
  let results = Array.of_list (Concurrent.Domain_pool.map (panel_f_cell options cfg) cells) in
  let per_row = List.length sets in
  List.iteri
    (fun i n_qubits ->
      let rows =
        List.mapi
          (fun j mu ->
            let first = ((i * List.length sweep) + j) * per_row in
            Printf.sprintf "%.3f%%" (100.0 *. mu)
            :: List.concat
                 (List.init per_row (fun k ->
                      let f, g = results.(first + k) in
                      [ f; string_of_int g ])))
          sweep
      in
      Report.Builder.subheading b (Printf.sprintf "FH %d qubits" n_qubits);
      Report.Builder.table b
        ~header:[ "avg 2Q err"; "S2 fid"; "S2 #2q"; "G7 fid"; "G7 #2q" ]
        rows)
    cfg.Config.fh_sizes

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 10: Sycamore — reliability across instruction sets";
  let rng = Rng.create (cfg.Config.seed + 10) in
  let device = Device.sycamore_line 6 in
  let qv = Apps.Qv.circuits rng ~count:cfg.Config.qv_count 4 in
  let best results =
    List.fold_left (fun acc r -> Float.max acc r.Study.mean_metric) neg_infinity results
  in
  let qv_results =
    run_suite b cfg device
      ~label:(Printf.sprintf "(a) %d 4-qubit QV circuits — HOP" (List.length qv))
      ~metric:Study.Hop qv ~sets:isas
  in
  Report.Builder.metric b "qv_hop_best" (best qv_results);
  print_degraded b "(a)"
    (full_fsim_degraded cfg ~metric:Study.Hop qv [ 1.5; 2.0; 2.5 ]);
  let qaoa = Apps.Qaoa.circuits rng ~count:cfg.Config.qaoa_count 4 in
  let qaoa_results =
    run_suite b cfg device
      ~label:(Printf.sprintf "(b) %d 4-qubit QAOA circuits — XED" (List.length qaoa))
      ~metric:Study.Xed qaoa ~sets:isas
  in
  Report.Builder.metric b "qaoa_xed_best" (best qaoa_results);
  print_degraded b "(b)"
    (full_fsim_degraded cfg ~metric:Study.Xed qaoa [ 1.5; 2.0; 2.5 ]);
  let qft = List.init cfg.Config.qft_inputs (Apps.Qft.with_input 4) in
  let _ =
    run_suite b cfg device
      ~label:
        (Printf.sprintf "(c) 4-qubit QFT (%d basis inputs) — success" (List.length qft))
      ~metric:Study.State_fidelity qft ~sets:isas
  in
  let fh = [ Apps.Fermi_hubbard.circuit 6 ] in
  let _ =
    run_suite b cfg device ~label:"(d) 6-qubit Fermi-Hubbard Trotter step — XEB fidelity"
      ~metric:Study.Xeb_fidelity fh ~sets:isas
  in
  (* (e): same QAOA suite with no cross-type noise variation *)
  let device_novary = Device.sycamore_line ~vary:false 6 in
  let _ =
    run_suite b cfg device_novary
      ~label:"(e) QAOA XED with NO noise variation across gate types"
      ~metric:Study.Xed qaoa ~sets:isas
  in
  panel_f b cfg;
  Report.Builder.textf b
    "\nPaper shape check: G-sets beat S-sets; G7 (with SWAP) ~ Full_fSim; the\n\
     continuous set's edge shrinks under 1.5-2.5x degraded calibration; without\n\
     cross-type variation (e) the G1-G6 gains shrink; in (f) G7 consistently\n\
     beats S2 with the gap widening at higher error rates.\n";
  Report.Builder.doc b
