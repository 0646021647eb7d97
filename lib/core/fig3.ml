(* Fig 3: the first Aspen-8 ring with per-edge XY(pi)/CZ fidelities (the
   best gate type varies across qubit pairs). *)

let doc ?cfg:(_ = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 3: Aspen-8 first ring, measured gate fidelities";
  let rows =
    List.map
      (fun ((a, b), cz, xy) ->
        [
          Printf.sprintf "(%d,%d)" a b;
          Report.f3 cz;
          Report.f3 xy;
          (if cz >= xy then "CZ" else "XY(pi)");
        ])
      (Device.Aspen8.fidelity_table ())
  in
  Report.Builder.table b ~header:[ "edge"; "CZ fid"; "XY(pi) fid"; "best" ] rows;
  Report.Builder.textf b "\n(synthesized to match Fig 3's spread; see DESIGN.md)\n";
  Report.Builder.doc b
