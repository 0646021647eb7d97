(* Fig 7: exact vs approximate decomposition as the average SYC error
   rate sweeps — HOP of 5-qubit QV and XED of 4-qubit QAOA.

   Approximate decomposition matches exact in the low-noise regime and
   overtakes it around Sycamore's current error rate (~0.62%). *)

open Linalg

let error_rates cfg =
  let n = cfg.Config.fig7_points in
  (* log-spaced from 0.1% to 2%, always including 0.62% *)
  let lo = Float.log 0.001 and hi = Float.log 0.02 in
  let pts =
    List.init n (fun k ->
        Float.exp (lo +. (float_of_int k /. float_of_int (max 1 (n - 1)) *. (hi -. lo))))
  in
  List.sort_uniq compare (0.0062 :: pts)

let evaluate cfg ~approximate ~mu circuits metric =
  let device = Device.sycamore_line ~types:[ Gates.Gate_type.s1 ] ~mu ~sigma:(mu /. 2.5) 6 in
  let options =
    { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop; approximate }
  in
  let r = Study.evaluate_suite ~options ~device ~isa:Isa.Set.s1 ~metric circuits in
  r.Study.mean_metric

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b
    "Fig 7: exact vs approximate decomposition vs SYC error rate";
  let rng = Rng.create (cfg.Config.seed + 7) in
  let qv = Apps.Qv.circuits rng ~count:(max 3 (cfg.Config.qv_count / 2)) 5 in
  let qaoa = Apps.Qaoa.circuits rng ~count:(max 3 (cfg.Config.qaoa_count / 2)) 4 in
  let syc_point = ref None in
  let rows =
    List.map
      (fun mu ->
        let hop_exact = evaluate cfg ~approximate:false ~mu qv Study.Hop in
        let hop_approx = evaluate cfg ~approximate:true ~mu qv Study.Hop in
        let xed_exact = evaluate cfg ~approximate:false ~mu qaoa Study.Xed in
        let xed_approx = evaluate cfg ~approximate:true ~mu qaoa Study.Xed in
        if Float.abs (mu -. 0.0062) < 1e-9 then
          syc_point := Some (hop_exact, hop_approx);
        [
          Printf.sprintf "%.3f%%%s" (100.0 *. mu)
            (if Float.abs (mu -. 0.0062) < 1e-9 then " (SYC)" else "");
          Report.f4 hop_exact;
          Report.f4 hop_approx;
          Report.f4 xed_exact;
          Report.f4 xed_approx;
        ])
      (error_rates cfg)
  in
  Report.Builder.table b
    ~header:
      [ "avg 2Q error"; "QV HOP exact"; "QV HOP approx"; "QAOA XED exact"; "QAOA XED approx" ]
    rows;
  (match !syc_point with
  | Some (e, a) ->
    Report.Builder.metric b "qv_hop_exact_syc" e;
    Report.Builder.metric b "qv_hop_approx_syc" a
  | None -> ());
  Report.Builder.textf b
    "\nPaper shape check: approx ~ exact at low error rates; approx wins at and\n\
     beyond the Sycamore operating point (0.62%%).\n";
  Report.Builder.doc b
