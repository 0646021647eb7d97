(* The single list of paper experiments.  `nuop experiment` runs them
   through [select], so an experiment added here shows up in
   `nuop experiment all`, in the nuop-bench/1 artifact and in its
   completeness check (Artifact) without further wiring. *)

type entry = {
  name : string;
  description : string;
  run : Config.t -> Report.doc;
}

let all =
  [
    {
      name = "table1";
      description = "gate families and fidelity models";
      run = (fun cfg -> Table1.doc ~cfg ());
    };
    {
      name = "table2";
      description = "instruction sets studied";
      run = (fun cfg -> Table2.doc ~cfg ());
    };
    {
      name = "fig1";
      description = "framework block -> module map";
      run = (fun cfg -> Fig1.doc ~cfg ());
    };
    {
      name = "fig2";
      description = "example NuOp decompositions";
      run = (fun cfg -> Fig2.doc ~cfg ());
    };
    {
      name = "fig3";
      description = "Aspen-8 calibration table";
      run = (fun cfg -> Fig3.doc ~cfg ());
    };
    {
      name = "fig4";
      description = "the NuOp template circuit";
      run = (fun cfg -> Fig4.doc ~cfg ());
    };
    {
      name = "fig5";
      description = "noise-adaptive decomposition walkthrough";
      run = (fun cfg -> Fig5.doc ~cfg ());
    };
    {
      name = "fig6";
      description = "NuOp vs Cirq gate counts";
      run = (fun cfg -> Fig6.doc ~cfg ());
    };
    {
      name = "fig7";
      description = "exact vs approximate decomposition";
      run = (fun cfg -> Fig7.doc ~cfg ());
    };
    {
      name = "fig8";
      description = "fSim expressivity heatmaps";
      run = (fun cfg -> Fig8.doc ~cfg ());
    };
    {
      name = "fig9";
      description = "Aspen-8 instruction-set study";
      run = (fun cfg -> Fig9.doc ~cfg ());
    };
    {
      name = "fig10";
      description = "Sycamore instruction-set study";
      run = (fun cfg -> Fig10.doc ~cfg ());
    };
    {
      name = "fig11";
      description = "calibration overhead model";
      run = (fun cfg -> Fig11.doc ~cfg ());
    };
    {
      name = "ablations";
      description = "design-decision & extension ablations";
      run = (fun cfg -> Ablations.doc ~cfg ());
    };
    {
      name = "design";
      description = "searched instruction sets (Pareto frontier)";
      run = (fun cfg -> Design.doc ~cfg ());
    };
    {
      name = "drift";
      description = "fresh vs drifted vs recalibrated snapshots";
      run = (fun cfg -> Drift_study.doc ~cfg ());
    };
  ]

(* Case-insensitive, matching the ISA/Device registry conventions:
   `nuop experiment FIG9` finds fig9. *)
let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = lower) all

let names = List.map (fun e -> e.name) all

let select requested =
  List.concat_map
    (fun name ->
      if String.lowercase_ascii name = "all" then all
      else
        match find name with
        | Some e -> [ e ]
        | None ->
          invalid_arg
            (Printf.sprintf "Core.Registry: unknown experiment %S (known: %s, or all)"
               name (String.concat ", " names)))
    requested
