(* The one expressivity scorer.

   Expressivity of a set on a unitary is the best its types can do:
   fewest exact-decomposition layers, and highest overall fidelity
   F_u = F_d * F_h (Eq 2) under a per-layer hardware error rate.  A
   set's score is the mean of those bests over application-unitary
   samples (QV / QAOA / QFT / FH / SWAP, Sec VIII).

   Everything funnels through Decompose.Cache: both the exact and the
   approximate mode of one (unitary, type) pair share a single cached
   fidelity curve, so scoring many overlapping sets — or re-running a
   figure — re-optimizes nothing.

   Parallelism note: maps run on Concurrent.Domain_pool, the one pool
   the library uses.  The pool preserves input order and each
   (type, unitary) job is independent and deterministic, so results are
   bit-identical at any pool size. *)

let default_error_rate = 0.0062
let default_threshold = Decompose.Nuop.default_threshold

type per_app = { app : string; app_mean_layers : float; app_mean_fidelity : float }

type t = {
  set_name : string;
  mean_layers : float;
  mean_fidelity : float;
  per_app : per_app list;
}

let samples ?counts rng =
  let count_of app =
    match counts with
    | None -> Apps.Su4_unitaries.default_counts app
    | Some l -> ( match List.assoc_opt app l with Some n -> n | None -> 0)
  in
  List.filter_map
    (fun app ->
      let count = count_of app in
      if count <= 0 then None
      else
        Some
          ( Apps.Su4_unitaries.application_name app,
            Apps.Su4_unitaries.sample rng app ~count ))
    Apps.Su4_unitaries.all_applications

(* Exact layers and approximate-mode overall fidelity of one
   (type, unitary) pair — one cached curve feeds both. *)
let eval_pair ~options ~threshold ~error_rate ty u =
  let exact = Decompose.Cache.decompose_exact ~options ~threshold ty ~target:u in
  let fh layers = (1.0 -. error_rate) ** float_of_int layers in
  let approx = Decompose.Cache.decompose_approx ~options ~fh ty ~target:u in
  (exact.Decompose.Nuop.layers, Decompose.Nuop.overall_fidelity approx)

type table = {
  apps : string array;  (** application label of each flattened unitary *)
  by_type : (string * (int * float) array) list;
      (** per gate-type name: (exact layers, best F_u) per unitary *)
}

let dedup_by_name types =
  List.rev
    (List.fold_left
       (fun acc ty ->
         let n = Gates.Gate_type.name ty in
         if List.exists (fun t -> String.equal (Gates.Gate_type.name t) n) acc then acc
         else ty :: acc)
       [] types)

let table ?(options = Decompose.Nuop.default_options) ?(threshold = default_threshold)
    ?(error_rate = default_error_rate) ?domains ~samples gate_types =
  let flat =
    List.concat_map (fun (app, us) -> List.map (fun u -> (app, u)) us) samples
  in
  if flat = [] then invalid_arg "Isa.Score.table: empty sample set";
  let types = dedup_by_name gate_types in
  if types = [] then invalid_arg "Isa.Score.table: no gate types";
  let jobs =
    List.concat_map (fun ty -> List.map (fun (_, u) -> (ty, u)) flat) types
  in
  let results =
    Concurrent.Domain_pool.map ?domains
      (fun (ty, u) -> eval_pair ~options ~threshold ~error_rate ty u)
      jobs
  in
  let n = List.length flat in
  let arr = Array.of_list results in
  let by_type =
    List.mapi
      (fun i ty -> (Gates.Gate_type.name ty, Array.sub arr (i * n) n))
      types
  in
  { apps = Array.of_list (List.map fst flat); by_type }

let of_table tbl set =
  let arrays =
    List.map
      (fun ty ->
        let tn = Gates.Gate_type.name ty in
        match List.assoc_opt tn tbl.by_type with
        | Some a -> a
        | None ->
          invalid_arg
            (Printf.sprintf "Isa.Score.of_table: type %s not in the table" tn))
      (Set.gate_types set)
  in
  let n = Array.length tbl.apps in
  let best_layers = Array.make n max_int in
  let best_fid = Array.make n 0.0 in
  List.iter
    (fun a ->
      Array.iteri
        (fun i (l, f) ->
          if l < best_layers.(i) then best_layers.(i) <- l;
          if f > best_fid.(i) then best_fid.(i) <- f)
        a)
    arrays;
  let mean_over idxs =
    let k = float_of_int (List.length idxs) in
    let sl = List.fold_left (fun acc i -> acc +. float_of_int best_layers.(i)) 0.0 idxs in
    let sf = List.fold_left (fun acc i -> acc +. best_fid.(i)) 0.0 idxs in
    (sl /. k, sf /. k)
  in
  let app_names =
    Array.to_list tbl.apps
    |> List.fold_left (fun acc a -> if List.mem a acc then acc else a :: acc) []
    |> List.rev
  in
  let per_app =
    List.map
      (fun app ->
        let idxs =
          List.filter
            (fun i -> String.equal tbl.apps.(i) app)
            (List.init n Fun.id)
        in
        let l, f = mean_over idxs in
        { app; app_mean_layers = l; app_mean_fidelity = f })
      app_names
  in
  let mean_layers, mean_fidelity = mean_over (List.init n Fun.id) in
  { set_name = Set.name set; mean_layers; mean_fidelity; per_app }

let score ?options ?error_rate ?domains ~samples set =
  of_table (table ?options ?error_rate ?domains ~samples (Set.gate_types set)) set

type type_stats = { layers : float; error : float }

let stats_for_type ?(options = Decompose.Nuop.default_options) ?domains ~mode ty
    unitaries =
  if unitaries = [] then invalid_arg "Isa.Score.stats_for_type: no unitaries";
  let eval u =
    let d =
      match mode with
      | `Exact threshold ->
        Decompose.Cache.decompose_exact ~options ~threshold ty ~target:u
      | `Approx f ->
        let fh layers = f ** float_of_int layers in
        Decompose.Cache.decompose_approx ~options ~fh ty ~target:u
    in
    (float_of_int d.Decompose.Nuop.layers, 1.0 -. d.Decompose.Nuop.fd)
  in
  let rs = Concurrent.Domain_pool.map ?domains eval unitaries in
  let n = float_of_int (List.length rs) in
  {
    layers = List.fold_left (fun acc (l, _) -> acc +. l) 0.0 rs /. n;
    error = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 rs /. n;
  }

let mean_layers_for_type ?options ?domains ty unitaries =
  (stats_for_type ?options ?domains ~mode:(`Exact default_threshold) ty unitaries).layers
