(* Library interface: devices as first-class, serializable data.

   A [Device.t] bundles what the paper treats as one unit of hardware
   state — identity, connectivity and a calibration snapshot, whose
   error table is the one record of the gate types the device runs —
   plus provenance (builder seed, snapshot timestamp, accumulated
   drift).  The [Registry] replaces the stringly-typed
   "sycamore" / "aspen8" dispatch that used to be copy-pasted across the
   CLI and experiments, and the JSON codec makes snapshots storable,
   diffable and re-loadable (`nuop devices dump` / `--device FILE`).

   A snapshot stores every table of [Calibration.t] — fixed-type errors
   and durations, the per-edge family bases and the family scale — so a
   dump/load round trip is exact, and a loaded snapshot passes the same
   validating [Calibration.make] as a registry build. *)

module Topology = Topology
module Calibration = Calibration
module Aspen8 = Aspen8
module Sycamore = Sycamore

module Provenance = struct
  type t = {
    seed : int option;  (** builder RNG seed, when registry-built *)
    calibrated_at : string option;  (** snapshot timestamp, free-form *)
    drifted_hours : float;  (** hours of simulated drift applied *)
  }

  let fresh ?seed () = { seed; calibrated_at = None; drifted_hours = 0.0 }
end

type t = {
  name : string;
  description : string;
  calibration : Calibration.t;
  provenance : Provenance.t;
}

let v ~name ~description ~calibration =
  { name; description; calibration; provenance = Provenance.fresh () }

let name d = d.name
let description d = d.description
let calibration d = d.calibration
let topology d = Calibration.topology d.calibration
let n_qubits d = Topology.n_qubits (topology d)
let provenance d = d.provenance
let with_calibration d calibration = { d with calibration }
let with_name d name = { d with name }

let add_drift d ~hours =
  {
    d with
    provenance =
      { d.provenance with Provenance.drifted_hours = d.provenance.Provenance.drifted_hours +. hours };
  }

(* ---------- named builders ---------- *)

let aspen8 ?(seed = 11) () =
  {
    name = "aspen8";
    description = "Rigetti Aspen-8: 8-qubit ring, CZ/XY(pi) tables of Fig 3";
    calibration = Aspen8.ring_device ~seed ();
    provenance = Provenance.fresh ~seed ();
  }

(* the Sycamore builders draw from RNG seed 23 *)
let sycamore_device ~name ~description calibration =
  { name; description; calibration; provenance = Provenance.fresh ~seed:23 () }

let sycamore () =
  sycamore_device ~name:"sycamore54"
    ~description:"Google Sycamore: 54 qubits on a 6x9 grid, N(0.62%, 0.24%) errors"
    (Sycamore.device ())

let sycamore_line ?vary ?types ?mu ?sigma ?oneq k =
  sycamore_device ~name:"sycamore"
    ~description:
      (Printf.sprintf "Google Sycamore sub-device: line of %d qubits, same error model" k)
    (Sycamore.line_device ?vary ?types ?mu ?sigma ?oneq k)

(* ---------- registry ---------- *)

module Registry = struct
  type entry = {
    name : string;
    description : string;
    default_qubits : int;
    build : int -> t;  (** requested qubit count; fixed-size devices ignore it *)
  }

  let entries =
    [
      {
        name = "aspen8";
        description = "Rigetti Aspen-8 8-qubit ring (Fig 3 calibration tables)";
        default_qubits = 8;
        build = (fun _ -> aspen8 ());
      };
      {
        name = "sycamore";
        description = "Sycamore line sub-device for the 3-6 qubit benchmarks";
        default_qubits = 4;
        build = (fun k -> sycamore_line k);
      };
      {
        name = "sycamore54";
        description = "Full 54-qubit Sycamore 6x9 grid";
        default_qubits = 54;
        build = (fun _ -> sycamore ());
      };
    ]

  let names () = List.map (fun e -> e.name) entries

  let find name =
    let lower = String.lowercase_ascii name in
    List.find_opt (fun e -> String.lowercase_ascii e.name = lower) entries

  let find_exn name =
    match find name with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "Device.Registry: unknown device %S (known: %s)" name
           (String.concat ", " (names ())))

  let build ?qubits name =
    let e = find_exn name in
    e.build (match qubits with None -> e.default_qubits | Some k -> k)
end

(* ---------- JSON snapshots ---------- *)

let schema_version = "nuop-device/2"

let fail fmt = Printf.ksprintf invalid_arg fmt

let get field j =
  match Njson.member field j with
  | Some v -> v
  | None -> fail "Device.of_json: missing field %S" field

let get_string field j =
  match Njson.to_string_value (get field j) with
  | Some s -> s
  | None -> fail "Device.of_json: field %S must be a string" field

(* Every stored number must be finite, except that T1 and T2 may be
   +infinity (an ideal qubit), which the JSON codec writes as 1e999:
   the values Calibration.make accepts. *)
let number ?(infinite = false) field v =
  match Njson.to_float_value v with
  | Some f when Float.is_finite f || (infinite && f = Float.infinity) -> f
  | Some _ -> fail "Device.of_json: field %S must be finite" field
  | None -> fail "Device.of_json: field %S must be a number" field

let get_float field j = number field (get field j)

let get_list field j =
  match Njson.to_list (get field j) with
  | Some l -> l
  | None -> fail "Device.of_json: field %S must be a list" field

let edge_to_json (a, b) = Njson.List [ Njson.Int a; Njson.Int b ]

(* Qubit counts and indices are integers (the writer emits Njson.Int):
   truncating a fractional value would load a different device. *)
let integer field = function
  | Njson.Int i -> i
  | _ -> fail "Device.of_json: field %S must be an integer" field

let edge_of_json field j =
  match Njson.to_list j with
  | Some [ a; b ] -> (integer field a, integer field b)
  | _ -> fail "Device.of_json: field %S must hold [a, b] qubit pairs" field

let float_array_to_json arr =
  Njson.List (Array.to_list (Array.map (fun f -> Njson.Float f) arr))

(* Error rates are probabilities below 1, coherence times are positive
   and gate durations non-negative (an ideal device's gates take no
   time), as in Calibration.make: values outside these ranges load as
   numbers but zero every ESP or trip the noise-channel constructors, so
   they are refused here. *)
let probability = ("in [0, 1)", fun v -> v >= 0.0 && v < 1.0)
let positive = ("positive", fun v -> v > 0.0)
let non_negative = ("non-negative", fun v -> v >= 0.0)

let in_range (what, ok) field v =
  if not (ok v) then fail "Device.of_json: field %S must be %s (got %g)" field what v;
  v

let per_qubit_of_json ?infinite ~n range field j =
  let values = get_list field j in
  if List.length values <> n then
    fail "Device.of_json: field %S needs %d values (got %d)" field n (List.length values);
  Array.of_list
    (List.map (fun v -> in_range range field (number ?infinite field v)) values)

let entry_to_json value_key (edge, type_name, v) =
  Njson.Obj
    [
      ("edge", edge_to_json edge);
      ("type", Njson.String type_name);
      (value_key, Njson.Float v);
    ]

let entry_of_json value_key j =
  let edge = edge_of_json "edge" (get "edge" j) in
  let type_name = get_string "type" j in
  (edge, type_name, get_float value_key j)

let to_json d =
  let cal = d.calibration in
  let topo = Calibration.topology cal in
  let edges = Topology.edges topo in
  Njson.Obj
    [
      ("schema", Njson.String schema_version);
      ("name", Njson.String d.name);
      ("description", Njson.String d.description);
      ( "provenance",
        Njson.Obj
          [
            ( "seed",
              match d.provenance.Provenance.seed with
              | Some s -> Njson.Int s
              | None -> Njson.Null );
            ( "calibrated_at",
              match d.provenance.Provenance.calibrated_at with
              | Some s -> Njson.String s
              | None -> Njson.Null );
            ("drifted_hours", Njson.Float d.provenance.Provenance.drifted_hours);
          ] );
      ( "topology",
        Njson.Obj
          [
            ("n_qubits", Njson.Int (Topology.n_qubits topo));
            ("edges", Njson.List (List.map edge_to_json edges));
          ] );
      ("oneq_error", float_array_to_json (Calibration.oneq_errors cal));
      ("readout_error", float_array_to_json (Calibration.readout_errors cal));
      ("t1", float_array_to_json (Calibration.t1_times cal));
      ("t2", float_array_to_json (Calibration.t2_times cal));
      ("duration_1q", Njson.Float (Calibration.duration_1q cal));
      ("duration_2q", Njson.Float (Calibration.duration_2q cal));
      ( "twoq_error",
        Njson.List (List.map (entry_to_json "error") (Calibration.twoq_error_entries cal))
      );
      ( "twoq_duration",
        Njson.List
          (List.map (entry_to_json "duration") (Calibration.twoq_duration_entries cal))
      );
      ( "family",
        Njson.Obj
          [
            ("scale", Njson.Float (Calibration.family_error_scale cal));
            ( "base",
              Njson.List
                (List.map
                   (fun e ->
                     Njson.Obj
                       [
                         ("edge", edge_to_json e);
                         ("error", Njson.Float (Calibration.family_base_error cal e));
                       ])
                   edges) );
          ] );
    ]

let of_json j =
  (match Njson.to_string_value (get "schema" j) with
  | Some s when s = schema_version -> ()
  | Some s -> fail "Device.of_json: unsupported schema %S (want %S)" s schema_version
  | None -> fail "Device.of_json: schema must be a string");
  let name = get_string "name" j in
  let description = get_string "description" j in
  let prov = get "provenance" j in
  let provenance =
    {
      Provenance.seed =
        (match Njson.member "seed" prov with
        | Some (Njson.Int s) -> Some s
        | Some Njson.Null | None -> None
        | Some _ -> fail "Device.of_json: provenance seed must be an integer or null");
      calibrated_at =
        (match Njson.member "calibrated_at" prov with
        | Some (Njson.String s) -> Some s
        | Some Njson.Null | None -> None
        | Some _ -> fail "Device.of_json: calibrated_at must be a string or null");
      drifted_hours = get_float "drifted_hours" prov;
    }
  in
  let topo_obj = get "topology" j in
  let n = integer "n_qubits" (get "n_qubits" topo_obj) in
  let edges = List.map (edge_of_json "edges") (get_list "edges" topo_obj) in
  let topology = Topology.of_edges n edges in
  let family_obj = get "family" j in
  let family_base =
    List.map
      (fun e -> (edge_of_json "edge" (get "edge" e), get_float "error" e))
      (get_list "base" family_obj)
  in
  let calibration =
    Calibration.make ~topology
      ~oneq_error:(per_qubit_of_json ~n probability "oneq_error" j)
      ~readout_error:(per_qubit_of_json ~n probability "readout_error" j)
      ~t1:(per_qubit_of_json ~infinite:true ~n positive "t1" j)
      ~t2:(per_qubit_of_json ~infinite:true ~n positive "t2" j)
      ~duration_1q:(in_range non_negative "duration_1q" (get_float "duration_1q" j))
      ~duration_2q:(in_range non_negative "duration_2q" (get_float "duration_2q" j))
      ~twoq_error:(List.map (entry_of_json "error") (get_list "twoq_error" j))
      ~twoq_duration:(List.map (entry_of_json "duration") (get_list "twoq_duration" j))
      ~family_base
      ~family_error_scale:(get_float "scale" family_obj) ()
  in
  { name; description; calibration; provenance }

let to_string ?indent d = Njson.to_string ?indent (to_json d)

let of_string s =
  match Njson.of_string_result s with
  | Ok json -> of_json json
  | Error msg -> fail "Device.of_string: input does not parse as JSON (%s)" msg

let to_file path d =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string d);
      Out_channel.output_char oc '\n')

let of_file path =
  match Njson.of_string_result (In_channel.with_open_text path In_channel.input_all) with
  | Ok json -> of_json json
  | Error msg -> fail "Device.of_file: %s does not parse as JSON (%s)" path msg
