(* Per-device calibration data: gate fidelities, coherence times and
   durations, as one immutable snapshot.

   Two-qubit errors and durations are keyed by (canonical edge, gate-type
   name); a continuous family's error on an edge is the edge's base error
   times one device-wide scale.  [make] validates every table once and
   nothing writes to them afterwards, so a derived snapshot may share
   its source's tables and Domain-pool workers may read one
   concurrently.  This is the data NuOp's noise-adaptive mode consumes
   (Sec V-B). *)

type entry = (int * int) * string * float

type t = {
  topology : Topology.t;
  oneq_error : float array;  (** per-qubit single-qubit gate error rate *)
  readout_error : float array;
  t1 : float array;  (** seconds *)
  t2 : float array;  (** seconds *)
  duration_1q : float;  (** seconds *)
  duration_2q : float;  (** seconds; the default when a type has no entry *)
  twoq_error : (int * int * string, float) Hashtbl.t;
  error_types : string list;  (** the distinct type names [twoq_error] holds *)
  twoq_duration : (int * int * string, float) Hashtbl.t;
      (** measured per-edge, per-gate-type durations (keyed like
          [twoq_error]); [duration_2q] is the fallback for types
          without an entry *)
  family_base : (int * int, float) Hashtbl.t;
      (** per-edge continuous-family error before scaling *)
  family_error_scale : float;
      (** multiplier applied to [family_base] (Fig 10's 1x/1.5x/2x/2.5x
          continuous-set degradation study, drift) *)
}

let fail fmt = Printf.ksprintf invalid_arg fmt

(* Each range refuses nan, which fails every comparison.  Only T1 and
   T2 may be infinite (an ideal qubit): every other value must also be
   finite, so that each calibration [make] accepts dumps to a snapshot
   that loads. *)
let probability = ("in [0, 1)", fun v -> v >= 0.0 && v < 1.0)
let positive = ("positive", fun v -> v > 0.0)

(* Fill a fresh table in list order from [(edge, type name, value)]
   entries ([""] names no type), refusing an entry off the topology's
   edges, out of range or keyed twice.  A table's creation size and
   insertion order fix its fold order, which [map_twoq_errors] hands to
   its function. *)
let table ~topology field (what, ok) key entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (edge, name, v) ->
      let a, b = Topology.canonical edge in
      let entry () =
        if name = "" then Printf.sprintf "(%d,%d)" a b
        else Printf.sprintf "%s on (%d,%d)" name a b
      in
      if not (Topology.are_adjacent topology a b) then
        fail "Calibration.make: field %S: %s is not on an edge of the topology" field
          (entry ());
      if not (ok v) then
        fail "Calibration.make: field %S: %s must be %s (got %g)" field (entry ()) what v;
      if v = Float.infinity then
        fail "Calibration.make: field %S: %s must be finite" field (entry ());
      let k = key (a, b) name in
      if Hashtbl.mem tbl k then
        fail "Calibration.make: field %S: %s appears twice" field (entry ());
      Hashtbl.add tbl k v)
    entries;
  tbl

let twoq_table ~topology field range entries =
  table ~topology field range (fun (a, b) name -> (a, b, name)) entries

let check_scale fn scale =
  if not (scale > 0.0) then fail "%s: field %S must be positive (got %g)" fn "scale" scale;
  if scale = Float.infinity then fail "%s: field %S must be finite" fn "scale"

let make ~topology ~oneq_error ~readout_error ~t1 ~t2 ~duration_1q ~duration_2q
    ~twoq_error ~twoq_duration ~family_base ?(family_error_scale = 1.0) () =
  let n = Topology.n_qubits topology in
  let per_qubit field (what, ok) arr =
    if Array.length arr <> n then
      fail "Calibration.make: field %S needs %d values (got %d)" field n (Array.length arr);
    Array.iteri
      (fun q v ->
        if not (ok v) then
          fail "Calibration.make: field %S: qubit %d must be %s (got %g)" field q what v)
      arr;
    Array.copy arr
  in
  let duration field v =
    if not (v >= 0.0) then fail "Calibration.make: field %S must be non-negative (got %g)" field v;
    if v = Float.infinity then fail "Calibration.make: field %S must be finite" field;
    v
  in
  check_scale "Calibration.make" family_error_scale;
  let family_base =
    table ~topology "base" probability
      (fun edge _ -> edge)
      (List.map (fun (edge, v) -> (edge, "", v)) family_base)
  in
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem family_base (a, b)) then
        fail "Calibration.make: field %S: no entry for edge (%d,%d)" "base" a b)
    (Topology.edges topology);
  {
    topology;
    oneq_error = per_qubit "oneq_error" probability oneq_error;
    readout_error = per_qubit "readout_error" probability readout_error;
    t1 = per_qubit "t1" positive t1;
    t2 = per_qubit "t2" positive t2;
    duration_1q = duration "duration_1q" duration_1q;
    duration_2q = duration "duration_2q" duration_2q;
    twoq_error = twoq_table ~topology "twoq_error" probability twoq_error;
    error_types =
      List.sort_uniq String.compare (List.map (fun (_, name, _) -> name) twoq_error);
    twoq_duration = twoq_table ~topology "twoq_duration" positive twoq_duration;
    family_base;
    family_error_scale;
  }

let topology t = t.topology

(* Every per-edge lookup validates adjacency up front so a routing bug
   surfaces as a named edge + gate type, not a silent fallback or a bare
   [Not_found] (mirrors the [Topology.shortest_path] precedent). *)
let check_edge t fn edge gate =
  let a, b = Topology.canonical edge in
  if not (Topology.are_adjacent t.topology a b) then
    fail "Calibration.%s: (%d,%d) is not an edge of the topology (gate type %s)" fn a b
      gate;
  (a, b)

let clamp_error e = Float.max 1e-6 (Float.min 0.5 e)

let fixed_error t fn (a, b) name =
  match Hashtbl.find_opt t.twoq_error (a, b, name) with
  | Some e -> e
  | None -> fail "Calibration.%s: no data for %s on (%d,%d)" fn name a b

let twoq_error t edge gate_type =
  let name = Gates.Gate_type.name gate_type in
  let edge = check_edge t "twoq_error" edge name in
  match gate_type with
  | Gates.Gate_type.Fixed _ -> fixed_error t "twoq_error" edge name
  | Gates.Gate_type.Fsim_family | Gates.Gate_type.Xy_family
  | Gates.Gate_type.Cphase_family ->
    clamp_error (t.family_error_scale *. Hashtbl.find t.family_base edge)

let twoq_fidelity t edge gate_type = 1.0 -. twoq_error t edge gate_type

let calibrates t gate_type =
  match gate_type with
  | Gates.Gate_type.Fixed _ -> List.mem (Gates.Gate_type.name gate_type) t.error_types
  | Gates.Gate_type.Fsim_family | Gates.Gate_type.Xy_family
  | Gates.Gate_type.Cphase_family ->
    true

let calibrated_types t = t.error_types

let twoq_duration t edge name =
  let a, b = check_edge t "twoq_duration" edge name in
  match Hashtbl.find_opt t.twoq_duration (a, b, name) with
  | Some d -> d
  | None -> t.duration_2q

let mean_over_edges t empty f =
  match List.map f (Topology.edges t.topology) with
  | [] -> empty
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_twoq_duration t name = mean_over_edges t t.duration_2q (fun e -> twoq_duration t e name)
let mean_twoq_error t name =
  mean_over_edges t 0.0 (fun e -> fixed_error t "mean_twoq_error" e name)

let oneq_error t q = t.oneq_error.(q)
let oneq_fidelity t q = 1.0 -. t.oneq_error.(q)
let readout_error t q = t.readout_error.(q)
let t1 t q = t.t1.(q)
let t2 t q = t.t2.(q)
let duration_1q t = t.duration_1q
let duration_2q t = t.duration_2q

(* ---------- derived snapshots ---------- *)

let with_family_error_scale t scale =
  check_scale "Calibration.with_family_error_scale" scale;
  { t with family_error_scale = scale }

(* [f] runs in the table's fold order.  The fold conses, so the list
   comes out in reverse fold order, and refilling a table of the same
   creation size in that order rebuilds every bucket as it was: the
   result folds in the same order as its source. *)
let map_twoq_errors t f =
  let entries =
    Hashtbl.fold
      (fun (a, b, name) e acc -> ((a, b), name, clamp_error (f (a, b) name e)) :: acc)
      t.twoq_error []
  in
  { t with twoq_error = twoq_table ~topology:t.topology "twoq_error" probability entries }

(* ---------- snapshot access (Device JSON serialization, drift) ---------- *)

let oneq_errors t = Array.copy t.oneq_error
let readout_errors t = Array.copy t.readout_error
let t1_times t = Array.copy t.t1
let t2_times t = Array.copy t.t2
let family_error_scale t = t.family_error_scale

let family_base_error t edge =
  let e = check_edge t "family_base_error" edge "family" in
  Hashtbl.find t.family_base e

let sorted_entries tbl =
  Hashtbl.fold (fun (a, b, name) v acc -> ((a, b), name, v) :: acc) tbl []
  |> List.sort compare

let twoq_error_entries t = sorted_entries t.twoq_error
let twoq_duration_entries t = sorted_entries t.twoq_duration
