(* Initial qubit placement: put the k logical qubits on a simple path of
   the device, preferring paths whose edges have the best available
   two-qubit fidelity for the target instruction set (noise-aware
   placement, as the noise-adaptive compilers the paper builds on). *)

let path_score cal isa path =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
      let best =
        List.fold_left
          (fun best ty ->
            let f =
              try Device.Calibration.twoq_fidelity cal (a, b) ty with
              | Invalid_argument _ -> 0.0
            in
            Float.max best f)
          0.0 (Isa.Set.gate_types isa)
      in
      walk (acc +. Float.log (Float.max best 1e-6)) rest
    | [ _ ] | [] -> acc
  in
  walk 0.0 path

(* Enumerate simple paths of length k (bounded count) via DFS. *)
let enumerate_paths topology k ~limit =
  let n = Device.Topology.n_qubits topology in
  let found = ref [] in
  let count = ref 0 in
  let visited = Array.make n false in
  let rec extend path q remaining =
    if !count >= limit then ()
    else if remaining = 0 then begin
      found := List.rev path :: !found;
      incr count
    end
    else
      List.iter
        (fun nb ->
          if (not visited.(nb)) && !count < limit then begin
            visited.(nb) <- true;
            extend (nb :: path) nb (remaining - 1);
            visited.(nb) <- false
          end)
        (Device.Topology.neighbors topology q)
  in
  for start = 0 to n - 1 do
    if !count < limit then begin
      visited.(start) <- true;
      extend [ start ] start (k - 1);
      visited.(start) <- false
    end
  done;
  !found

let best_line cal isa k =
  let topology = Device.Calibration.topology cal in
  if k = 1 then Some [| 0 |]
  else begin
    match enumerate_paths topology k ~limit:4000 with
    | [] -> None
    | paths ->
      let scored = List.map (fun p -> (path_score cal isa p, p)) paths in
      let best =
        List.fold_left
          (fun (bs, bp) (s, p) -> if s > bs then (s, p) else (bs, bp))
          (List.hd scored) (List.tl scored)
      in
      Some (Array.of_list (snd best))
  end

let trivial cal k =
  let topology = Device.Calibration.topology cal in
  Option.map Array.of_list (Device.Topology.find_line topology k)
