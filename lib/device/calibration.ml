(* Per-device calibration data: gate fidelities, coherence times and
   durations.

   Two-qubit fidelities are keyed by (canonical edge, gate-type name);
   continuous families are served by a per-edge error function that may
   depend on the family angles.  This is the data NuOp's noise-adaptive
   mode consumes (Sec V-B). *)

type t = {
  topology : Topology.t;
  oneq_error : float array;  (** per-qubit single-qubit gate error rate *)
  readout_error : float array;
  t1 : float array;  (** seconds *)
  t2 : float array;  (** seconds *)
  duration_1q : float;  (** seconds *)
  duration_2q : float;  (** seconds; the default when a type has no entry *)
  twoq_error : (int * int * string, float) Hashtbl.t;
  twoq_duration : (int * int * string, float) Hashtbl.t;
      (** measured per-edge, per-gate-type durations (keyed like
          [twoq_error]); [duration_2q] is the backward-compatible
          fallback for types without an entry *)
  family_error : (int * int) -> float array -> float;
      (** error rate when a continuous-family gate at the given angles is
          used on an edge *)
  family_error_scale : float;
      (** multiplier applied to [family_error] (Fig 10's 1x/1.5x/2x/2.5x
          continuous-set degradation study) *)
}

let make ~topology ~oneq_error ~readout_error ~t1 ~t2 ~duration_1q ~duration_2q
    ~family_error ?(family_error_scale = 1.0) () =
  let n = Topology.n_qubits topology in
  assert (Array.length oneq_error = n);
  assert (Array.length readout_error = n);
  assert (Array.length t1 = n && Array.length t2 = n);
  {
    topology;
    oneq_error;
    readout_error;
    t1;
    t2;
    duration_1q;
    duration_2q;
    twoq_error = Hashtbl.create 64;
    twoq_duration = Hashtbl.create 64;
    family_error;
    family_error_scale;
  }

let topology t = t.topology

(* Every per-edge lookup and update validates adjacency up front so a
   routing bug surfaces as a named edge + gate type, not a silent
   fallback or a bare [Not_found] from a device's family closure
   (mirrors the [Topology.shortest_path] precedent). *)
let check_edge t fn edge gate =
  let a, b = Topology.canonical edge in
  if not (Topology.are_adjacent t.topology a b) then
    invalid_arg
      (Printf.sprintf
         "Calibration.%s: (%d,%d) is not an edge of the topology (gate type %s)"
         fn a b gate);
  (a, b)

let set_twoq_error t edge gate_type err =
  let a, b = check_edge t "set_twoq_error" edge (Gates.Gate_type.name gate_type) in
  assert (err >= 0.0 && err < 1.0);
  Hashtbl.replace t.twoq_error (a, b, Gates.Gate_type.name gate_type) err

let clamp_error e = Float.max 1e-6 (Float.min 0.5 e)

let twoq_error t edge gate_type =
  let a, b = check_edge t "twoq_error" edge (Gates.Gate_type.name gate_type) in
  match gate_type with
  | Gates.Gate_type.Fixed _ -> begin
    match Hashtbl.find_opt t.twoq_error (a, b, Gates.Gate_type.name gate_type) with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "Calibration.twoq_error: no data for %s on (%d,%d)"
           (Gates.Gate_type.name gate_type) a b)
  end
  | Gates.Gate_type.Fsim_family | Gates.Gate_type.Xy_family
  | Gates.Gate_type.Cphase_family ->
    clamp_error (t.family_error_scale *. t.family_error (a, b) [||])

let family_angle_error t edge angles =
  let e = check_edge t "family_angle_error" edge "family" in
  clamp_error (t.family_error_scale *. t.family_error e angles)

let twoq_fidelity t edge gate_type = 1.0 -. twoq_error t edge gate_type

(* ---------- per-type gate durations ---------- *)

let set_twoq_duration t edge gate_type dur =
  let a, b = check_edge t "set_twoq_duration" edge (Gates.Gate_type.name gate_type) in
  if not (dur > 0.0) then invalid_arg "Calibration.set_twoq_duration: need dur > 0";
  Hashtbl.replace t.twoq_duration (a, b, Gates.Gate_type.name gate_type) dur

let twoq_duration_by_name t edge name =
  let a, b = check_edge t "twoq_duration" edge name in
  match Hashtbl.find_opt t.twoq_duration (a, b, name) with
  | Some d -> d
  | None -> t.duration_2q

let twoq_duration t edge gate_type =
  twoq_duration_by_name t edge (Gates.Gate_type.name gate_type)

let mean_twoq_duration t gate_type =
  let ds = List.map (fun e -> twoq_duration t e gate_type) (Topology.edges t.topology) in
  match ds with
  | [] -> t.duration_2q
  | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

let oneq_error t q = t.oneq_error.(q)
let oneq_fidelity t q = 1.0 -. t.oneq_error.(q)
let readout_error t q = t.readout_error.(q)
let t1 t q = t.t1.(q)
let t2 t q = t.t2.(q)
let duration_1q t = t.duration_1q
let duration_2q t = t.duration_2q

let with_family_error_scale t scale = { t with family_error_scale = scale }

(* Uniformly rescale every stored error rate — 1Q, 2Q, family AND
   readout (used for the Fig 7 / Fig 10f error-rate sweeps).  Durations
   and coherence times are timing, not error rates, and stay put. *)
let with_error_scale t scale =
  let copy =
    {
      t with
      twoq_error = Hashtbl.copy t.twoq_error;
      twoq_duration = Hashtbl.copy t.twoq_duration;
      oneq_error = Array.map (fun e -> clamp_error (e *. scale)) t.oneq_error;
      readout_error = Array.map (fun e -> clamp_error (e *. scale)) t.readout_error;
      family_error = (fun e a -> t.family_error e a *. scale);
    }
  in
  Hashtbl.iter
    (fun k e -> Hashtbl.replace copy.twoq_error k (clamp_error (e *. scale)))
    t.twoq_error;
  copy

(* In-place transform of every stored fixed-type error (drift
   simulation). *)
let map_twoq_errors t f =
  let updates =
    Hashtbl.fold
      (fun (a, b, name) e acc -> ((a, b, name), f (a, b) name e) :: acc)
      t.twoq_error []
  in
  List.iter
    (fun (key, e) -> Hashtbl.replace t.twoq_error key (clamp_error e))
    updates

let mean_twoq_error t gate_type =
  let es = List.map (fun e -> twoq_error t e gate_type) (Topology.edges t.topology) in
  match es with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 es /. float_of_int (List.length es)

(* ---------- snapshot access (Device JSON serialization, drift) ---------- *)

let copy t =
  {
    t with
    oneq_error = Array.copy t.oneq_error;
    readout_error = Array.copy t.readout_error;
    t1 = Array.copy t.t1;
    t2 = Array.copy t.t2;
    twoq_error = Hashtbl.copy t.twoq_error;
    twoq_duration = Hashtbl.copy t.twoq_duration;
  }

let oneq_errors t = Array.copy t.oneq_error
let readout_errors t = Array.copy t.readout_error
let t1_times t = Array.copy t.t1
let t2_times t = Array.copy t.t2
let family_error_scale t = t.family_error_scale

let family_base_error t edge =
  let e = check_edge t "family_base_error" edge "family" in
  t.family_error e [||]

let sorted_entries tbl =
  Hashtbl.fold (fun (a, b, name) v acc -> ((a, b), name, v) :: acc) tbl []
  |> List.sort compare

let twoq_error_entries t = sorted_entries t.twoq_error
let twoq_duration_entries t = sorted_entries t.twoq_duration

let set_twoq_error_by_name t edge name err =
  let a, b = check_edge t "set_twoq_error" edge name in
  if not (err >= 0.0 && err < 1.0) then
    invalid_arg "Calibration.set_twoq_error: need 0 <= err < 1";
  Hashtbl.replace t.twoq_error (a, b, name) err

let set_twoq_duration_by_name t edge name dur =
  let a, b = check_edge t "set_twoq_duration" edge name in
  if not (dur > 0.0) then invalid_arg "Calibration.set_twoq_duration: need dur > 0";
  Hashtbl.replace t.twoq_duration (a, b, name) dur
