(* The ISA subsystem: Set lookup/validation, topology-aware Cost,
   the shared Score, Search + Pareto frontier — including the paper's
   headline acceptance check (a searched 4-8-type set within 10% of
   Full_fSim's expressivity at >= 50x fewer calibration circuits) and
   the repo-wide guard that nothing computes expressivity outside
   Isa.Score — and the set-design properties. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_nuop =
  {
    Decompose.Nuop.default_options with
    starts = 2;
    max_layers = 3;
    bfgs = { Optimize.Bfgs.default_options with max_iter = 100 };
  }

let small_samples seed =
  let rng = Rng.create seed in
  [ ("QV", List.init 3 (fun _ -> Apps.Qv.random_unitary rng)) ]

(* ---------- Set ---------- *)

let test_make_rejects_empty () =
  Alcotest.check_raises "empty set"
    (Invalid_argument
       "Isa.Set.make: \"Empty\" has no gate types (every set needs at least one)")
    (fun () -> ignore (Isa.Set.make "Empty" []))

let test_make_rejects_repeated_type () =
  Alcotest.check_raises "repeated type"
    (Invalid_argument "Isa.Set.make: \"Twice\" lists gate type \"CZ\" more than once")
    (fun () -> ignore (Isa.Set.make "Twice" Gates.Gate_type.[ s3; s1; s3 ]))

let test_find_case_insensitive () =
  let name_of o = Option.map Isa.Set.name o in
  Alcotest.(check (option string)) "g7 finds G7" (Some "G7") (name_of (Isa.Set.find "g7"));
  Alcotest.(check (option string)) "G7 finds G7" (Some "G7") (name_of (Isa.Set.find "G7"));
  Alcotest.(check (option string))
    "full_fsim finds Full_fSim" (Some "Full_fSim")
    (name_of (Isa.Set.find "full_fsim"));
  Alcotest.(check (option string)) "unknown misses" None (name_of (Isa.Set.find "G99"))

let test_find_exn_lists_names () =
  check_bool "find_exn hit" true (Isa.Set.name (Isa.Set.find_exn "r5") = "R5");
  match Isa.Set.find_exn "nope" with
  | exception Invalid_argument msg ->
    check_bool "message names the miss" true
      (String.length msg > 0
      && Astring.String.is_infix ~affix:"nope" msg
      && Astring.String.is_infix ~affix:"G7" msg
      && Astring.String.is_infix ~affix:"Full_fSim" msg)
  | _ -> Alcotest.fail "find_exn should raise on unknown names"

(* ---------- Cost ---------- *)

let test_effective_types () =
  check_int "G7" 8 (Isa.Cost.effective_types Isa.Set.g7);
  check_int "R5" 6 (Isa.Cost.effective_types Isa.Set.r5);
  check_int "Full_fSim" Isa.Cost.continuous_family_types
    (Isa.Cost.effective_types Isa.Set.full_fsim)

(* the near-square grid model: n qubits row-major on r = round(sqrt n)
   rows of c = ceil(n / r), i.e. f = n / c full rows and m = n mod c
   qubits in the last, so f(c - 1) + max(0, m - 1) horizontal and n - c
   vertical couplers (2rc - r - c when the grid is full) *)
let test_grid_topology_matches_model () =
  List.iter
    (fun n ->
      let r = int_of_float (Float.round (Float.sqrt (float_of_int n))) in
      let c = (n + r - 1) / r in
      let f = n / c and m = n mod c in
      check_int
        (Printf.sprintf "edges at %d qubits" n)
        ((f * (c - 1)) + max 0 (m - 1) + max 0 (n - c))
        (Device.Topology.edge_count (Isa.Cost.grid_topology n)))
    [ 2; 3; 4; 5; 8; 9; 12; 54; 100; 500; 1000 ]

(* G7's 8 types on the 54-qubit grid: 93 couplers in 4 coloring
   batches, 10,750 circuits and 2 h per type per pair or batch *)
let test_cost_g7_grid54 () =
  let c = Isa.Cost.grid ~n_qubits:54 Isa.Set.g7 in
  check_int "pairs" 93 c.Isa.Cost.n_pairs;
  check_int "types" 8 c.Isa.Cost.n_types;
  check_int "circuits" (93 * 8 * 10750) c.Isa.Cost.circuits;
  check_int "batches on the 54q grid" 4 c.Isa.Cost.batches;
  Alcotest.(check (float 1e-9)) "serial hours" (2.0 *. 93.0 *. 8.0) c.Isa.Cost.hours_serial;
  Alcotest.(check (float 1e-9)) "hours" 64.0 c.Isa.Cost.hours_parallel

(* ---------- Score ---------- *)

let test_score_basics () =
  Decompose.Cache.clear ();
  let samples = small_samples 5 in
  let s = Isa.Score.score ~options:small_nuop ~samples Isa.Set.s3 in
  check_bool "layers positive" true (s.Isa.Score.mean_layers >= 1.0);
  check_bool "fidelity in (0,1]" true
    (s.Isa.Score.mean_fidelity > 0.0 && s.Isa.Score.mean_fidelity <= 1.0);
  check_bool "per-app covers QV" true
    (List.exists (fun a -> a.Isa.Score.app = "QV") s.Isa.Score.per_app);
  (* score = of_table over the set's own types *)
  let tbl =
    Isa.Score.table ~options:small_nuop ~samples (Isa.Set.gate_types Isa.Set.s3)
  in
  check_bool "of_table agrees" true (Isa.Score.of_table tbl Isa.Set.s3 = s);
  (* a superset can only improve both numbers *)
  let g2 = Isa.Score.score ~options:small_nuop ~samples Isa.Set.g2 in
  check_bool "superset layers" true (g2.Isa.Score.mean_layers <= s.Isa.Score.mean_layers);
  check_bool "superset fidelity" true
    (g2.Isa.Score.mean_fidelity >= s.Isa.Score.mean_fidelity)

let test_stats_for_type () =
  Decompose.Cache.clear ();
  let samples = List.assoc "QV" (small_samples 6) in
  let st =
    Isa.Score.stats_for_type ~options:small_nuop
      ~mode:(`Exact Isa.Score.default_threshold) Gates.Gate_type.s3 samples
  in
  Alcotest.(check (float 1e-12))
    "mean_layers_for_type is the exact mode" st.Isa.Score.layers
    (Isa.Score.mean_layers_for_type ~options:small_nuop Gates.Gate_type.s3 samples);
  check_bool "error small but nonnegative" true (st.Isa.Score.error >= 0.0)

(* ---------- Search / Pareto ---------- *)

let test_pareto_by () =
  let pts = [ (1.0, 5.0); (2.0, 4.0); (0.5, 5.0); (3.0, 6.0) ] in
  let front = Isa.Search.pareto_by ~cost:fst ~value:snd pts in
  check_bool "dominated dropped" true
    (List.sort compare front = [ (0.5, 5.0); (3.0, 6.0) ]);
  (* a single point is its own frontier *)
  check_bool "singleton" true (Isa.Search.pareto_by ~cost:fst ~value:snd [ (1.0, 1.0) ] = [ (1.0, 1.0) ])

let test_search_smoke () =
  Decompose.Cache.clear ();
  let samples = small_samples 7 in
  let options =
    { Isa.Search.nuop = small_nuop; max_types = 2; beam_width = 1 }
  in
  let topology = Isa.Cost.grid_topology 54 in
  let points =
    Isa.Search.run ~options ~samples ~topology
      Gates.Gate_type.[ s3; s2; swap_type ]
  in
  check_int "one point per size" 2 (List.length points);
  List.iteri
    (fun i p ->
      check_int "set size" (i + 1) (Isa.Set.size p.Isa.Search.set);
      check_bool "named D<k>" true
        (Isa.Set.name p.Isa.Search.set = Printf.sprintf "D%d" (i + 1)))
    points;
  let fids =
    List.map (fun p -> p.Isa.Search.score.Isa.Score.mean_fidelity) points
  in
  check_bool "fidelity non-decreasing with size" true
    (List.sort compare fids = fids);
  check_bool "frontier nonempty" true (Isa.Search.pareto points <> [])

(* The paper's headline, machine-checked: at the default pool and scale a
   searched 4-8-type set sits within 10% of Full_fSim's expressivity at
   >= 50x fewer calibration circuits. *)
let test_design_acceptance () =
  Decompose.Cache.clear ();
  let rng = Rng.create 2021 in
  let samples =
    Isa.Score.samples
      ~counts:Apps.Su4_unitaries.[ (Qv, 6); (Qaoa, 6); (Qft, 4); (Fh, 4); (Swap, 1) ]
      rng
  in
  let nuop = { Decompose.Nuop.default_options with starts = 2; max_layers = 4 } in
  let options = { Isa.Search.default_options with nuop } in
  let topology = Isa.Cost.grid_topology 54 in
  let points =
    Isa.Search.run ~options ~samples ~topology (Isa.Search.default_pool ())
  in
  let frontier = Isa.Search.pareto points in
  let fsim_score = Isa.Score.score ~options:nuop ~samples Isa.Set.full_fsim in
  let fsim_cost = Isa.Cost.on ~topology Isa.Set.full_fsim in
  let witness =
    List.find_opt
      (fun p ->
        let k = Isa.Set.size p.Isa.Search.set in
        k >= 4 && k <= 8
        && p.Isa.Search.score.Isa.Score.mean_fidelity
           >= 0.9 *. fsim_score.Isa.Score.mean_fidelity
        && fsim_cost.Isa.Cost.circuits >= 50 * p.Isa.Search.cost.Isa.Cost.circuits)
      frontier
  in
  check_bool
    "a 4-8-type frontier set is within 10% of Full_fSim at >= 50x fewer circuits"
    true (Option.is_some witness)

(* ---------- repo-wide invariant: expressivity only via Isa.Score ----------

   A file that both samples application unitaries (Su4_unitaries) and
   decomposes them through the cache (Decompose.Cache) is re-growing a
   private expressivity scorer; everything outside lib/isa must go
   through Isa.Score instead.  Sources are scanned as copied into
   _build next to this test's cwd. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ml_files dir =
  match Sys.is_directory dir with
  | true ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (Filename.concat dir)
  | false | (exception Sys_error _) -> []

let test_no_expressivity_outside_isa () =
  let dirs =
    [
      "../lib/core"; "../lib/compiler"; "../lib/calibration"; "../lib/apps";
      "../examples"; "../bin";
    ]
  in
  let files = List.concat_map ml_files dirs in
  check_bool "scanned a real source tree" true (List.length files > 10);
  let offenders =
    List.filter
      (fun f ->
        let s = read_file f in
        Astring.String.is_infix ~affix:"Su4_unitaries" s
        && Astring.String.is_infix ~affix:"Decompose.Cache" s)
      files
  in
  Alcotest.(check (list string)) "no private expressivity scorers" [] offenders

(* ---------- properties: set design against its invariants ---------- *)

module G = Proptest.Gen

(* scoring runs many (type, unitary) decompositions per case; keep each
   one tiny *)
let isa_nuop =
  {
    Decompose.Nuop.default_options with
    starts = 2;
    max_layers = 2;
    bfgs = { Optimize.Bfgs.default_options with max_iter = 60 };
  }

let sorted_type_names set =
  List.sort compare (List.map Gates.Gate_type.name (Isa.Set.gate_types set))

let weakly_dominates (c1, v1) (c2, v2) = c1 <= c2 && v1 >= v2

let isa_properties =
  [
    (* a search that can only pick from a Table II set's own types must
       reconstruct exactly that set at its size level *)
    Proptest.test "search over a Table II pool returns that set" ~count:3
      (Proptest.arbitrary
         ~print:(fun (set, _) -> Isa.Set.name set)
         (G.pair
            (G.choosel Isa.Set.[ s3; g1; r1; g2 ])
            (G.list_of ~len:(G.return 2) G.su4)))
      (fun (set, us) ->
        let samples = [ ("QV", us) ] in
        let topology = Device.Topology.grid 3 3 in
        let points =
          Isa.Search.run
            ~options:{ Isa.Search.default_options with nuop = isa_nuop }
            ~samples ~topology (Isa.Set.gate_types set)
        in
        List.length points = Isa.Set.size set
        &&
        let last = List.nth points (List.length points - 1) in
        sorted_type_names last.Isa.Search.set = sorted_type_names set);
    (* every frontier point is undominated in the input, and every input
       point is weakly dominated by some frontier point *)
    Proptest.test "pareto frontier is undominated and covering" ~count:50
      (Proptest.arbitrary
         (G.list_of ~len:(G.int_range 1 12)
            (G.pair (G.float_range 0.0 10.0) (G.float_range 0.0 10.0))))
      (fun pts ->
        let front = Isa.Search.pareto_by ~cost:fst ~value:snd pts in
        (pts = [] || front <> [])
        && List.for_all
             (fun p ->
               not
                 (List.exists
                    (fun q -> weakly_dominates q p && (fst q < fst p || snd q > snd p))
                    pts))
             front
        && List.for_all
             (fun p -> List.exists (fun f -> weakly_dominates f p) front)
             pts);
    (* the Domain-pool determinism law, extended to the scorer *)
    Proptest.test "score is pool-size invariant" ~count:3
      (Proptest.arbitrary (G.list_of ~len:(G.return 3) G.su4))
      (fun us ->
        let samples = [ ("QV", us) ] in
        let set = Isa.Set.g1 in
        Decompose.Cache.clear ();
        let a = Isa.Score.score ~options:isa_nuop ~domains:1 ~samples set in
        Decompose.Cache.clear ();
        let b = Isa.Score.score ~options:isa_nuop ~domains:4 ~samples set in
        a = b);
  ]

let () =
  Alcotest.run "isa"
    [
      ( "set",
        [
          Alcotest.test_case "make rejects empty" `Quick test_make_rejects_empty;
          Alcotest.test_case "make rejects a repeated type" `Quick
            test_make_rejects_repeated_type;
          Alcotest.test_case "find is case-insensitive" `Quick test_find_case_insensitive;
          Alcotest.test_case "find_exn lists known names" `Quick test_find_exn_lists_names;
        ] );
      ( "cost",
        [
          Alcotest.test_case "effective types" `Quick test_effective_types;
          Alcotest.test_case "grid topology matches the model" `Quick
            test_grid_topology_matches_model;
          Alcotest.test_case "G7 on the 54-qubit grid" `Quick test_cost_g7_grid54;
        ] );
      ( "score",
        [
          Alcotest.test_case "basics" `Quick test_score_basics;
          Alcotest.test_case "per-type stats" `Quick test_stats_for_type;
        ] );
      ( "search",
        [
          Alcotest.test_case "pareto_by" `Quick test_pareto_by;
          Alcotest.test_case "smoke search" `Quick test_search_smoke;
          Alcotest.test_case "design acceptance (paper headline)" `Slow
            test_design_acceptance;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "expressivity only via Isa.Score" `Quick
            test_no_expressivity_outside_isa;
        ] );
      ("isa", isa_properties);
    ]
