(* Random graphs for QAOA MaxCut instances. *)

open Linalg

type t = { n : int; edges : (int * int) list }

let n t = t.n
let edges t = t.edges
let edge_count t = List.length t.edges

(* Erdos-Renyi with edge probability 1/2 — each n-qubit instance has
   ~n^2/4 ZZ interactions (we read Sec VI's "~n^3/4" as a typo for this;
   see DESIGN.md). *)
let erdos_renyi rng n =
  assert (n >= 2);
  let edges = ref [] in
  for a = 0 to n - 2 do
    for b = a + 1 to n - 1 do
      if Rng.float rng < 0.5 then edges := (a, b) :: !edges
    done
  done;
  (* MaxCut on an edgeless graph is degenerate; guarantee at least one *)
  let edges = if !edges = [] then [ (0, 1) ] else !edges in
  { n; edges }

let complete n =
  let edges = ref [] in
  for a = 0 to n - 2 do
    for b = a + 1 to n - 1 do
      edges := (a, b) :: !edges
    done
  done;
  { n; edges = !edges }

let ring n = { n; edges = List.init n (fun i -> (i, (i + 1) mod n)) }

let three_regular rng n =
  (* Repeatedly sample perfect matchings; fall back to ring + matching for
     odd sizes. *)
  if n mod 2 = 1 || n < 4 then ring n
  else begin
    let tbl = Hashtbl.create (3 * n) in
    let add (a, b) =
      let e = if a < b then (a, b) else (b, a) in
      Hashtbl.replace tbl e ()
    in
    for _ = 1 to 3 do
      let perm = Rng.permutation rng n in
      for k = 0 to (n / 2) - 1 do
        add (perm.(2 * k), perm.((2 * k) + 1))
      done
    done;
    { n; edges = Hashtbl.fold (fun e () acc -> e :: acc) tbl [] |> List.sort compare }
  end

let cut_value t assignment =
  List.fold_left
    (fun acc (a, b) -> if assignment.(a) <> assignment.(b) then acc + 1 else acc)
    0 t.edges

let max_cut_brute_force t =
  assert (t.n <= 20);
  let best = ref 0 in
  for mask = 0 to (1 lsl t.n) - 1 do
    let assignment = Array.init t.n (fun q -> (mask lsr q) land 1 = 1) in
    let v = cut_value t assignment in
    if v > !best then best := v
  done;
  !best
