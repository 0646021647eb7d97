(* Fig 8: expressivity heatmaps — average exact-decomposition gate counts
   over the fSim(theta, phi) parameter grid for QV, QAOA, QFT, FH and
   SWAP unitaries.  theta in [0, pi/2], phi in [0, pi] (unitary symmetry
   range, Sec VIII-A). *)

open Linalg

let axis lo hi n = List.init n (fun k -> lo +. (float_of_int k /. float_of_int (n - 1) *. (hi -. lo)))

type cell_table = (int * int, float) Hashtbl.t

let mean_count cfg gate_type unitaries =
  let options = { cfg.Config.nuop with starts = max 2 (cfg.Config.nuop.starts - 1) } in
  Isa.Score.mean_layers_for_type ~options gate_type unitaries

let compute cfg unitaries : cell_table * float list * float list =
  let g = cfg.Config.fig8_grid in
  let thetas = axis 0.0 (Float.pi /. 2.0) g in
  let phis = axis 0.0 Float.pi g in
  let table = Hashtbl.create (g * g) in
  List.iteri
    (fun it theta ->
      List.iteri
        (fun ip phi ->
          let ty = Gates.Gate_type.fsim_type theta phi in
          Hashtbl.replace table (it, ip) (mean_count cfg ty unitaries))
        phis)
    thetas;
  (table, thetas, phis)

let selected_types =
  [
    ("S1 SYC", Float.pi /. 2.0, Float.pi /. 6.0);
    ("S2 sqrt_iSWAP", Float.pi /. 4.0, 0.0);
    ("S3 CZ", 0.0, Float.pi);
    ("S4 iSWAP", Float.pi /. 2.0, 0.0);
    ("S5", Float.pi /. 3.0, 0.0);
    ("S6", 3.0 *. Float.pi /. 8.0, 0.0);
    ("S7", Float.pi /. 6.0, Float.pi);
  ]

let application_sets cfg rng =
  [
    ("QV", Apps.Su4_unitaries.qv_set rng ~count:cfg.Config.fig8_qv);
    ("QAOA", Apps.Su4_unitaries.qaoa_set rng ~count:cfg.Config.fig8_qaoa);
    ("QFT", Apps.Su4_unitaries.qft_set ~count:cfg.Config.fig8_qft ());
    ("FH", Apps.Su4_unitaries.fh_set rng ~count:cfg.Config.fig8_fh);
    ("SWAP", Apps.Su4_unitaries.swap_set ());
  ]

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 8: average gate counts over the fSim(theta, phi) space";
  let rng = Rng.create (cfg.Config.seed + 8) in
  List.iter
    (fun (app, unitaries) ->
      Report.Builder.subheading b
        (Printf.sprintf "%s (%d unitaries, %dx%d grid, exact decomposition)" app
           (List.length unitaries) cfg.Config.fig8_grid cfg.Config.fig8_grid);
      let table, thetas, phis = compute cfg unitaries in
      let cell ~theta ~phi =
        let it = Option.get (List.find_index (fun t -> t = theta) thetas) in
        let ip = Option.get (List.find_index (fun p -> p = phi) phis) in
        Hashtbl.find table (it, ip)
      in
      Report.Builder.heatmap b ~theta_axis:thetas ~phi_axis:phis ~cell;
      (* report the S1-S7 cells *)
      let rows =
        List.map
          (fun (name, theta, phi) ->
            let ty = Gates.Gate_type.fsim_type theta phi in
            [ name; Report.f2 (mean_count cfg ty unitaries) ])
          selected_types
      in
      Report.Builder.table b ~header:[ "selected type"; app ^ " mean #gates" ] rows;
      Report.Builder.metric b
        (Printf.sprintf "%s_cz_mean_gates" (String.lowercase_ascii app))
        (mean_count cfg Gates.Gate_type.s3 unitaries))
    (application_sets cfg rng);
  Report.Builder.textf b
    "\nPaper shape check: QV ~2 near fSim(5pi/12,0) and fSim(pi/6,pi); QAOA ~2 near\n\
     iSWAP/CZ; SWAP costs 3 almost everywhere but 1 at fSim(pi/2,pi).\n";
  Report.Builder.doc b
