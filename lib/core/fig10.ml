(* Fig 10: Google Sycamore study.

   (a) QV HOP, (b) QAOA XED (+ Full_fSim at degraded error rates),
   (c) QFT success, (d) FH fidelity across S1-S7 / G1-G7 / Full_fSim;
   (e) QAOA XED without noise variation across gate types;
   (f) FH fidelity at 10/20 qubits vs hardware error rate, S2 vs G7
   (trajectory simulation). *)

open Linalg

let isas = Isa.Set.(google_singles @ google_multis @ [ full_fsim ])

let make_qft_circuits cfg n =
  List.init cfg.Config.qft_inputs (fun k ->
      let input = ((2 * k) + 1) land ((1 lsl n) - 1) in
      let c = ref (Qcir.Circuit.empty n) in
      for q = 0 to n - 1 do
        if (input lsr q) land 1 = 1 then c := Qcir.Circuit.add_gate !c Gates.Gate.x [| q |]
      done;
      Qcir.Circuit.append !c (Apps.Qft.circuit n))

let stack = Compiler.Pass.default_stack

let run_suite b cfg device ~label ~metric circuits ~sets =
  Report.Builder.subheading b label;
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let results =
    List.map
      (fun isa -> Study.evaluate_suite ~options ~stack ~device ~isa ~metric circuits)
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
  List.iter
    (fun n_qubits ->
      let circuit = Apps.Fermi_hubbard.circuit n_qubits in
      let rows =
        List.map
          (fun mu ->
            let cells =
              List.map
                (fun isa ->
                  (* the sweep scales the whole noise model: 1Q errors
                     stay one order of magnitude below 2Q errors, as on
                     the real device *)
                  let device =
                    Device.sycamore_line ~mu ~sigma:(mu /. 2.5)
                      ~oneq:(mu /. 6.0) n_qubits
                  in
                  let placement =
                    Option.get
                      (Compiler.Mapping.best_line (Device.calibration device) isa
                         n_qubits)
                  in
                  let compiled =
                    Compiler.Pipeline.compile ~options ~device ~isa ~placement circuit
                  in
                  (* isolate the swept variable (gate error): hold
                     decoherence at zero, as the paper's error-rate axis
                     does *)
                  let nm =
                    {
                      (Compiler.Pipeline.noise_model ~device compiled) with
                      Sim.Noisy.t1 = (fun _ -> infinity);
                      t2 = (fun _ -> infinity);
                    }
                  in
                  (* trajectory XEB against the exact-compiled reference *)
                  let reference =
                    Compiler.Pipeline.compile
                      ~options:{ options with approximate = false }
                      ~device ~isa ~placement circuit
                  in
                  let ideal = Sim.State.run_circuit reference.circuit in
                  let ideal_self =
                    let p = Sim.State.probabilities ideal in
                    Metrics.Dist.overlap p p
                  in
                  let overlap =
                    Sim.Trajectory.mean_ideal_overlap
                      ~trajectories:cfg.Config.trajectories nm compiled.circuit ~ideal
                  in
                  let fid =
                    Metrics.Xeb.from_overlap
                      ~n_qubits:(Qcir.Circuit.n_qubits compiled.circuit)
                      ~overlap_noisy_ideal:overlap ~overlap_ideal_ideal:ideal_self
                  in
                  (Report.f4 fid, compiled.twoq_count))
                sets
            in
            Printf.sprintf "%.3f%%" (100.0 *. mu)
            :: List.concat_map (fun (f, g) -> [ f; string_of_int g ]) cells)
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
  let qft = make_qft_circuits cfg 4 in
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
