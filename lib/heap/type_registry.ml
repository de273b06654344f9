type id = int

type t = {
  mem : Memory.t;
  boot : Boot_space.t;
  by_name : (string, id) Hashtbl.t;
  names : string Beltway_util.Vec.t;
  tibs : Beltway_util.Int_vec.t; (* type id -> its TIB, a [Value.t] *)
}

let create mem boot =
  {
    mem;
    boot;
    by_name = Hashtbl.create 32;
    names = Beltway_util.Vec.create ~dummy:"" ();
    tibs = Beltway_util.Int_vec.create ();
  }

let register t ~name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None ->
    let id = Beltway_util.Vec.length t.names in
    (* Type object: field 0 = its id, field 1 = a name hash; immortal. *)
    let addr = Boot_space.alloc t.boot ~tib:Value.null ~nfields:2 in
    Object_model.set_field t.mem addr 0 (Value.of_int id);
    Object_model.set_field t.mem addr 1 (Value.of_int (Hashtbl.hash name land 0xFFFFFF));
    Hashtbl.replace t.by_name name id;
    Beltway_util.Vec.push t.names name;
    Beltway_util.Int_vec.push t.tibs (Value.of_addr addr);
    id

let check t id name =
  if id < 0 || id >= Beltway_util.Vec.length t.names then
    invalid_arg (Printf.sprintf "Type_registry.%s: unknown type id %d" name id)

let tib_value t id =
  check t id "tib_value";
  Beltway_util.Int_vec.get t.tibs id

let name t id =
  check t id "name";
  Beltway_util.Vec.get t.names id

let id_of_tib t v =
  if not (Value.is_ref v) then None
  else begin
    let addr = Value.to_addr v in
    if not (Boot_space.contains t.boot addr) then None
    else begin
      let id = Value.to_int (Object_model.get_field t.mem addr 0) in
      if id >= 0 && id < Beltway_util.Vec.length t.names then Some id else None
    end
  end

let count t = Beltway_util.Vec.length t.names
