(* Automated instruction-set design: rediscover R5/G7-class sets from a
   candidate pool instead of transcribing Table II.

   Beam search over set sizes: level k keeps the [beam_width] best
   k-type sets (by mean F_u, ties broken by mean layers then by a
   canonical name key, so the search is fully deterministic) and
   extends each with every unused pool type.  Scoring is O(1) per
   subset: the per-(type, unitary) table is computed once up front
   (Score.table) and subsets just take per-unitary bests over their
   types (Score.of_table).

   The emitted points — the best set of each size, costed on the given
   topology — form the expressivity-vs-calibration trade-off curve;
   [pareto] filters it to the undominated frontier. *)

type options = { max_types : int; beam_width : int; nuop : Decompose.Nuop.options }

let default_options =
  { max_types = 8; beam_width = 2; nuop = Decompose.Nuop.default_options }

type point = { set : Set.t; score : Score.t; cost : Cost.t }

let default_pool () =
  Gates.Gate_type.
    [
      s1;
      s2;
      s3;
      s4;
      s5;
      s6;
      s7;
      swap_type;
      cnot_type;
      xy_pi;
      (* off-Table-II grid points near the Fig 8 expressivity optima *)
      fsim_type (5.0 *. Float.pi /. 12.0) 0.0;
      fixed "XY(pi/2)" (Gates.Twoq.xy (Float.pi /. 2.0));
      fixed "CZ(pi/2)" (Gates.Twoq.cphase (Float.pi /. 2.0));
    ]

let type_name = Gates.Gate_type.name

let key_of_types types =
  String.concat "," (List.sort compare (List.map type_name types))

let mem_by_name ty types =
  List.exists (fun t -> String.equal (type_name t) (type_name ty)) types

let run ?(options = default_options) ~samples ~topology pool =
  let pool =
    List.rev
      (List.fold_left
         (fun acc ty -> if mem_by_name ty acc then acc else ty :: acc)
         [] pool)
  in
  if pool = [] then invalid_arg "Isa.Search.run: empty candidate pool";
  let tbl = Score.table ~options:options.nuop ~samples pool in
  let max_types = min (max 1 options.max_types) (List.length pool) in
  let beam_width = max 1 options.beam_width in
  let rank (ka, a) (kb, b) =
    match compare b.Score.mean_fidelity a.Score.mean_fidelity with
    | 0 -> (
      match compare a.Score.mean_layers b.Score.mean_layers with
      | 0 -> compare ka kb
      | c -> c)
    | c -> c
  in
  let rec go k beam points =
    if k > max_types then List.rev points
    else begin
      let extended =
        if k = 1 then List.map (fun ty -> [ ty ]) pool
        else
          List.concat_map
            (fun types ->
              List.filter_map
                (fun ty -> if mem_by_name ty types then None else Some (ty :: types))
                pool)
            beam
      in
      let seen = Hashtbl.create 64 in
      let candidates =
        List.filter_map
          (fun types ->
            let key = key_of_types types in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              let set = Set.make (Printf.sprintf "D%d" k) types in
              Some (types, set, (key, Score.of_table tbl set))
            end)
          extended
      in
      let sorted =
        List.sort (fun (_, _, a) (_, _, b) -> rank a b) candidates
      in
      let beam' =
        List.filteri (fun i _ -> i < beam_width) sorted
        |> List.map (fun (types, _, _) -> types)
      in
      match sorted with
      | [] -> List.rev points (* unreachable: the beam can always extend *)
      | (_, set, (_, score)) :: _ ->
        let cost = Cost.on ~topology set in
        go (k + 1) beam' ({ set; score; cost } :: points)
    end
  in
  go 1 [] []

let pareto_by ~cost ~value points =
  let dominates p q =
    cost p <= cost q && value p >= value q
    && (cost p < cost q || value p > value q)
  in
  List.filter (fun p -> not (List.exists (fun q -> dominates q p) points)) points

let pareto points =
  pareto_by
    ~cost:(fun p -> float_of_int p.cost.Cost.circuits)
    ~value:(fun p -> p.score.Score.mean_fidelity)
    points
  |> List.sort (fun a b -> compare a.cost.Cost.circuits b.cost.Cost.circuits)
