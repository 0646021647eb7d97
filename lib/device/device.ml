(* Library interface: devices as first-class, serializable data.

   A [Device.t] bundles what the paper treats as one unit of hardware
   state — identity, connectivity, a calibration snapshot, the native
   instruction set — plus provenance (builder seed, snapshot timestamp,
   accumulated drift).  The [Registry] replaces the stringly-typed
   "sycamore" / "aspen8" dispatch that used to be copy-pasted across the
   CLI and experiments, and the JSON codec makes snapshots storable,
   diffable and re-loadable (`nuop devices dump` / `--device FILE`).

   Serialization note: the continuous-family error closure of
   [Calibration.t] may depend on the family angles; a snapshot persists
   the per-edge base evaluated at the empty angle vector, so any angle
   dependence is flattened on a dump/load round trip.  Fixed-type errors
   and durations round-trip exactly. *)

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

  let fresh ?seed ?calibrated_at () = { seed; calibrated_at; drifted_hours = 0.0 }
end

type t = {
  name : string;
  description : string;
  calibration : Calibration.t;
  native_isa : Isa_set.t;
  provenance : Provenance.t;
}

let v ~name ~description ~calibration ~native_isa ?(provenance = Provenance.fresh ())
    () =
  { name; description; calibration; native_isa; provenance }

let name d = d.name
let description d = d.description
let calibration d = d.calibration
let topology d = Calibration.topology d.calibration
let n_qubits d = Topology.n_qubits (topology d)
let native_isa d = d.native_isa
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

let aspen8 ?(seed = 11) ?(types = Aspen8.default_types) () =
  {
    name = "aspen8";
    description = "Rigetti Aspen-8: 8-qubit ring, CZ/XY(pi) tables of Fig 3";
    calibration = Aspen8.ring_device ~seed ~types ();
    native_isa = Isa_set.make "aspen8-native" types;
    provenance = Provenance.fresh ~seed ();
  }

let sycamore ?(seed = 23) ?vary ?types ?family_error_scale ?mu ?sigma ?oneq () =
  let type_list = match types with None -> Sycamore.default_types | Some t -> t in
  {
    name = "sycamore54";
    description = "Google Sycamore: 54 qubits on a 6x9 grid, N(0.62%, 0.24%) errors";
    calibration =
      Sycamore.device ~seed ?vary ?types ?family_error_scale ?mu ?sigma ?oneq ();
    native_isa = Isa_set.make "sycamore-native" type_list;
    provenance = Provenance.fresh ~seed ();
  }

let sycamore_line ?(seed = 23) ?vary ?types ?family_error_scale ?mu ?sigma ?oneq k =
  let type_list = match types with None -> Sycamore.default_types | Some t -> t in
  {
    name = "sycamore";
    description =
      Printf.sprintf "Google Sycamore sub-device: line of %d qubits, same error model" k;
    calibration =
      Sycamore.line_device ~seed ?vary ?types ?family_error_scale ?mu ?sigma ?oneq k;
    native_isa = Isa_set.make "sycamore-native" type_list;
    provenance = Provenance.fresh ~seed ();
  }

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

let schema_version = "nuop-device/1"

let fail fmt = Printf.ksprintf invalid_arg fmt

let mat_to_json m =
  let entry r c =
    let z = Linalg.Mat.get m r c in
    Njson.List [ Njson.Float z.Complex.re; Njson.Float z.Complex.im ]
  in
  Njson.List
    (List.concat_map (fun r -> List.init 4 (entry r)) [ 0; 1; 2; 3 ])

let mat_of_json j =
  match Njson.to_list j with
  | Some entries when List.length entries = 16 ->
    let parsed =
      List.map
        (fun e ->
          match Njson.to_list e with
          | Some [ re; im ] -> begin
            match (Njson.to_float_value re, Njson.to_float_value im) with
            | Some re, Some im -> { Complex.re; im }
            | _ -> fail "Device.of_json: non-numeric matrix entry"
          end
          | _ -> fail "Device.of_json: matrix entries must be [re, im] pairs")
        entries
    in
    let arr = Array.of_list parsed in
    Linalg.Mat.init 4 4 (fun r c -> arr.((4 * r) + c))
  | _ -> fail "Device.of_json: a gate unitary needs 16 [re, im] entries"

let gate_type_to_json ty =
  match ty with
  | Gates.Gate_type.Fixed { name; unitary } ->
    Njson.Obj
      [
        ("kind", Njson.String "fixed");
        ("name", Njson.String name);
        ("unitary", mat_to_json unitary);
      ]
  | Gates.Gate_type.Fsim_family -> Njson.Obj [ ("kind", Njson.String "fsim_family") ]
  | Gates.Gate_type.Xy_family -> Njson.Obj [ ("kind", Njson.String "xy_family") ]
  | Gates.Gate_type.Cphase_family ->
    Njson.Obj [ ("kind", Njson.String "cphase_family") ]

let get field j =
  match Njson.member field j with
  | Some v -> v
  | None -> fail "Device.of_json: missing field %S" field

let get_string field j =
  match Njson.to_string_value (get field j) with
  | Some s -> s
  | None -> fail "Device.of_json: field %S must be a string" field

(* Every stored number must be finite: the JSON codec writes infinity
   as 1e999, which would otherwise load as a T1 or an error rate. *)
let number field v =
  match Njson.to_float_value v with
  | Some f when Float.is_finite f -> f
  | Some _ -> fail "Device.of_json: field %S must be finite" field
  | None -> fail "Device.of_json: field %S must be a number" field

let get_float field j = number field (get field j)

let get_list field j =
  match Njson.to_list (get field j) with
  | Some l -> l
  | None -> fail "Device.of_json: field %S must be a list" field

let gate_type_of_json j =
  match Njson.to_string_value (get "kind" j) with
  | Some "fixed" -> Gates.Gate_type.fixed (get_string "name" j) (mat_of_json (get "unitary" j))
  | Some "fsim_family" -> Gates.Gate_type.Fsim_family
  | Some "xy_family" -> Gates.Gate_type.Xy_family
  | Some "cphase_family" -> Gates.Gate_type.Cphase_family
  | Some k -> fail "Device.of_json: unknown gate-type kind %S" k
  | None -> fail "Device.of_json: gate-type kind must be a string"

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

(* Error rates are probabilities below 1 and times are positive: values
   outside these ranges load as numbers but zero every ESP or trip the
   noise-channel constructors, so they are refused here. *)
let probability = ("in [0, 1)", fun v -> v >= 0.0 && v < 1.0)
let positive = ("positive", fun v -> v > 0.0)

let in_range (what, ok) field v =
  if not (ok v) then fail "Device.of_json: field %S must be %s (got %g)" field what v;
  v

let per_qubit_of_json ~n range field j =
  let values = get_list field j in
  if List.length values <> n then
    fail "Device.of_json: field %S needs %d values (got %d)" field n (List.length values);
  Array.of_list (List.map (fun v -> in_range range field (number field v)) values)

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
      ( "native_isa",
        Njson.Obj
          [
            ("name", Njson.String (Isa_set.name d.native_isa));
            ( "types",
              Njson.List (List.map gate_type_to_json (Isa_set.gate_types d.native_isa))
            );
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
  let family_base = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let edge = Topology.canonical (edge_of_json "edge" (get "edge" e)) in
      Hashtbl.replace family_base edge (get_float "error" e))
    (get_list "base" family_obj);
  (* Angle dependence is flattened: a loaded family serves its stored
     per-edge base at every angle (see the module comment). *)
  let family_error e _angles =
    match Hashtbl.find_opt family_base (Topology.canonical e) with
    | Some base -> base
    | None ->
      let a, b = Topology.canonical e in
      fail "Device.of_json: no family base error for edge (%d,%d)" a b
  in
  let calibration =
    Calibration.make ~topology
      ~oneq_error:(per_qubit_of_json ~n probability "oneq_error" j)
      ~readout_error:(per_qubit_of_json ~n probability "readout_error" j)
      ~t1:(per_qubit_of_json ~n positive "t1" j)
      ~t2:(per_qubit_of_json ~n positive "t2" j)
      ~duration_1q:(in_range positive "duration_1q" (get_float "duration_1q" j))
      ~duration_2q:(in_range positive "duration_2q" (get_float "duration_2q" j))
      ~family_error
      ~family_error_scale:(get_float "scale" family_obj) ()
  in
  List.iter
    (fun e ->
      let edge, type_name, err = entry_of_json "error" e in
      Calibration.set_twoq_error_by_name calibration edge type_name err)
    (get_list "twoq_error" j);
  List.iter
    (fun e ->
      let edge, type_name, dur = entry_of_json "duration" e in
      Calibration.set_twoq_duration_by_name calibration edge type_name dur)
    (get_list "twoq_duration" j);
  let isa_obj = get "native_isa" j in
  let native_isa =
    Isa_set.make (get_string "name" isa_obj)
      (List.map gate_type_of_json (get_list "types" isa_obj))
  in
  { name; description; calibration; native_isa; provenance }

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
