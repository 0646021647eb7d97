(* Device connectivity graphs.

   Qubits are integers [0, n); edges are undirected and stored in
   canonical (low, high) order. *)

type t = { n_qubits : int; adj : int list array }

let canonical (a, b) = if a <= b then (a, b) else (b, a)

let of_edges n_qubits edges =
  if n_qubits <= 0 then invalid_arg "Topology.of_edges: need qubits";
  let adj = Array.make n_qubits [] in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "Topology.of_edges: self loop";
      if a < 0 || b < 0 || a >= n_qubits || b >= n_qubits then
        invalid_arg "Topology.of_edges: qubit out of range";
      let e = canonical (a, b) in
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { n_qubits; adj }

let n_qubits t = t.n_qubits
let neighbors t q = t.adj.(q)

let edges t =
  let acc = ref [] in
  for q = t.n_qubits - 1 downto 0 do
    List.iter (fun nb -> if nb > q then acc := (q, nb) :: !acc) t.adj.(q)
  done;
  !acc

let edge_count t = List.length (edges t)

let are_adjacent t a b = List.mem b t.adj.(a)

let ring n = of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let line n = of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let grid rows cols =
  let n = rows * cols in
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  of_edges n !edges

(* BFS shortest path, returned as the list of qubits from [src] to [dst]
   inclusive. *)
let shortest_path t src dst =
  if src = dst then [ src ]
  else begin
    let prev = Array.make t.n_qubits (-1) in
    let visited = Array.make t.n_qubits false in
    visited.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      List.iter
        (fun nb ->
          if not visited.(nb) then begin
            visited.(nb) <- true;
            prev.(nb) <- q;
            if nb = dst then found := true else Queue.add nb queue
          end)
        t.adj.(q)
    done;
    if not !found then
      invalid_arg
        (Printf.sprintf
           "Topology.shortest_path: qubits %d and %d are not connected" src dst);
    let rec walk acc q = if q = src then src :: acc else walk (q :: acc) prev.(q) in
    walk [] dst
  end

let distance t src dst = List.length (shortest_path t src dst) - 1

let is_connected t =
  match t.n_qubits with
  | 0 -> true
  | _ ->
    let reached = ref 0 in
    let visited = Array.make t.n_qubits false in
    let queue = Queue.create () in
    visited.(0) <- true;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      incr reached;
      List.iter
        (fun nb ->
          if not visited.(nb) then begin
            visited.(nb) <- true;
            Queue.add nb queue
          end)
        t.adj.(q)
    done;
    !reached = t.n_qubits

(* A connected sub-line of [k] qubits: used to place small benchmarks. *)
let find_line t k =
  if k <= 0 then invalid_arg "Topology.find_line: k <= 0";
  if k = 1 then Some [ 0 ]
  else begin
    (* DFS for a simple path of length k from each start *)
    let rec extend path visited q remaining =
      if remaining = 0 then Some (List.rev path)
      else
        List.fold_left
          (fun acc nb ->
            match acc with
            | Some _ -> acc
            | None ->
              if visited.(nb) then None
              else begin
                visited.(nb) <- true;
                let r = extend (nb :: path) visited nb (remaining - 1) in
                if r = None then visited.(nb) <- false;
                r
              end)
          None (neighbors t q)
    in
    let rec try_start q =
      if q >= t.n_qubits then None
      else begin
        let visited = Array.make t.n_qubits false in
        visited.(q) <- true;
        match extend [ q ] visited q (k - 1) with
        | Some path -> Some path
        | None -> try_start (q + 1)
      end
    in
    try_start 0
  end

(* Greedy edge coloring: assign each edge the smallest color unused at
   either endpoint.  By Vizing's theorem the optimum is within one of the
   maximum degree; for grids/rings this greedy finds it.  Used to batch
   parallel calibration: edges sharing a color can be calibrated
   concurrently without touching a common qubit. *)
let edge_coloring t =
  let qubit_colors = Array.make t.n_qubits [] in
  List.map
    (fun (a, b) ->
      let used = qubit_colors.(a) @ qubit_colors.(b) in
      let rec first_free c = if List.mem c used then first_free (c + 1) else c in
      let color = first_free 0 in
      qubit_colors.(a) <- color :: qubit_colors.(a);
      qubit_colors.(b) <- color :: qubit_colors.(b);
      ((a, b), color))
    (edges t)

let coloring_classes t =
  let colored = edge_coloring t in
  List.fold_left (fun acc (_, c) -> max acc (c + 1)) 0 colored

let max_degree t =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.adj
