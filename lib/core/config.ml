type bound = Pct of int | Whole_heap
type promote = Same_belt | Next_belt
type belt_cfg = { bound : bound; promote : promote }
type stamp_mode = Belt_major | Epoch
type reserve_mode = Half | Dynamic
type order = Lowest_belt | Global_fifo
type barrier = Remsets | Cards

type t = {
  label : string;
  belts : belt_cfg array;
  stamp_mode : stamp_mode;
  order : order;
  flip : bool;
  nursery_filter : bool;
  reserve : reserve_mode;
  ttd_frames : int option;
  remset_trigger : int option;
  los_threshold : int option;
  barrier : barrier;
  policy : string option;
  strategy : string option;
}

let validate t =
  if Array.length t.belts = 0 then Error "configuration needs at least one belt"
  else if
    t.nursery_filter
    && (t.stamp_mode <> Belt_major || t.ttd_frames <> None)
  then
    Error
      "nursery-source filter requires belt-major ordering and a single nursery \
       increment (no time-to-die trigger)"
  else if t.flip && Array.length t.belts <> 2 then
    Error "belt flipping (BOF) requires exactly two belts"
  else if (match t.los_threshold with Some n -> n < 2 | None -> false) then
    Error "los threshold must be >= 2 words"
  else if
    Array.exists (fun b -> match b.bound with Pct p -> p < 1 || p > 100 | _ -> false) t.belts
  then Error "percentage bounds must lie in [1,100]"
  else Ok t

let base ~label ~belts ~stamp_mode ~order =
  {
    label;
    belts;
    stamp_mode;
    order;
    flip = false;
    nursery_filter = false;
    reserve = Dynamic;
    ttd_frames = None;
    remset_trigger = None;
    los_threshold = None;
    barrier = Remsets;
    policy = None;
    strategy = None;
  }

let pct_bound x = if x >= 100 then Whole_heap else Pct x

let semi_space =
  base ~label:"ss"
    ~belts:[| { bound = Whole_heap; promote = Same_belt } |]
    ~stamp_mode:Epoch ~order:Global_fifo

let appel =
  {
    (base ~label:"appel"
       ~belts:
         [|
           { bound = Whole_heap; promote = Next_belt };
           { bound = Whole_heap; promote = Same_belt };
         |]
       ~stamp_mode:Belt_major ~order:Lowest_belt)
    with
    reserve = Half;
    nursery_filter = true;
  }

let beltway_appel = { appel with label = "100.100"; reserve = Dynamic }

let appel3 =
  {
    (base ~label:"100.100.100"
       ~belts:
         [|
           { bound = Whole_heap; promote = Next_belt };
           { bound = Whole_heap; promote = Next_belt };
           { bound = Whole_heap; promote = Same_belt };
         |]
       ~stamp_mode:Belt_major ~order:Lowest_belt)
    with
    nursery_filter = true;
  }

let fixed_nursery ~pct =
  {
    (base
       ~label:(Printf.sprintf "fixed:%d" pct)
       ~belts:
         [|
           { bound = Pct pct; promote = Next_belt };
           { bound = Whole_heap; promote = Same_belt };
         |]
       ~stamp_mode:Belt_major ~order:Lowest_belt)
    with
    reserve = Half;
    nursery_filter = true;
  }

let bofm ~pct =
  base
    ~label:(Printf.sprintf "ofm:%d" pct)
    ~belts:[| { bound = Pct pct; promote = Same_belt } |]
    ~stamp_mode:Epoch ~order:Global_fifo

let bof ~pct =
  {
    (base
       ~label:(Printf.sprintf "of:%d" pct)
       ~belts:
         [|
           { bound = Pct pct; promote = Next_belt };
           { bound = Pct pct; promote = Next_belt };
         |]
       ~stamp_mode:Epoch ~order:Global_fifo)
    with
    flip = true;
  }

let beltway_xy ~x ~y =
  {
    (base
       ~label:(Printf.sprintf "%d.%d" x y)
       ~belts:
         [|
           { bound = pct_bound x; promote = Next_belt };
           { bound = pct_bound y; promote = Same_belt };
         |]
       ~stamp_mode:Belt_major ~order:Lowest_belt)
    with
    nursery_filter = true;
  }

let beltway_xx ~x = beltway_xy ~x ~y:x

let beltway_xx100 ~x =
  {
    (base
       ~label:(Printf.sprintf "%d.%d.100" x x)
       ~belts:
         [|
           { bound = pct_bound x; promote = Next_belt };
           { bound = pct_bound x; promote = Next_belt };
           { bound = Whole_heap; promote = Same_belt };
         |]
       ~stamp_mode:Belt_major ~order:Lowest_belt)
    with
    nursery_filter = true;
  }

let to_string t = t.label
let pp fmt t = Format.pp_print_string fmt t.label

let resolve_bound t ~heap_frames = function
  | Whole_heap -> None
  | Pct x ->
    let frames =
      match t.reserve with
      | Dynamic -> max 1 (heap_frames * x / (100 + x))
      | Half -> max 1 (heap_frames / 2 * x / 100)
    in
    Some frames

(* -- parser ------------------------------------------------------------ *)

let parse_int name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let apply_option cfg opt =
  match String.split_on_char ':' opt with
  | [ "nofilter" ] -> Ok { cfg with nursery_filter = false }
  | [ "filter" ] -> Ok { cfg with nursery_filter = true }
  | [ "halfreserve" ] -> Ok { cfg with reserve = Half }
  | [ "dynreserve" ] -> Ok { cfg with reserve = Dynamic }
  | [ "ttd"; n ] ->
    Result.map (fun n -> { cfg with ttd_frames = Some n; nursery_filter = false })
      (parse_int "ttd" n)
  | [ "remtrig"; n ] ->
    Result.map (fun n -> { cfg with remset_trigger = Some n }) (parse_int "remtrig" n)
  | [ "los"; n ] ->
    Result.map (fun n -> { cfg with los_threshold = Some n }) (parse_int "los" n)
  | [ "cards" ] -> Ok { cfg with barrier = Cards }
  | [ "remsets" ] -> Ok { cfg with barrier = Remsets }
  | "policy" :: (name :: _ as spec) when name <> "" ->
    (* The raw "name[:arg]" spec; existence and arguments are checked
       against the registry by [Policy.resolve] (Config stays a pure
       parser with no dependency on the policy constructors). *)
    Ok { cfg with policy = Some (String.concat ":" spec) }
  | [ "policy" ] -> Error "policy: expected a registry name (try +policy:NAME)"
  | [ "strategy"; name ] when name <> "" ->
    (* Existence is checked against the registry by [Strategy.resolve]
       (Config stays a pure parser, as for [+policy:...]). *)
    Ok { cfg with strategy = Some name }
  | [ "strategy" ] ->
    Error "strategy: expected a registry name (try +strategy:NAME)"
  | _ -> Error (Printf.sprintf "unknown option %S" opt)

let parse_base s =
  let s = String.lowercase_ascii s in
  let with_arg prefix k =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match parse_int prefix (String.sub s plen (String.length s - plen)) with
      | Ok n when n >= 1 && n <= 100 -> Some (Ok (k n))
      | Ok n -> Some (Error (Printf.sprintf "%s: %d out of range [1,100]" prefix n))
      | Error e -> Some (Error e)
    else None
  in
  match s with
  | "ss" | "bss" -> Ok semi_space
  | "appel" | "ba2" -> Ok appel
  | "appel3" -> Ok appel3
  | _ -> (
    let prefixed =
      List.find_map
        (fun (p, k) -> with_arg p k)
        [
          ("fixed:", fun n -> fixed_nursery ~pct:n);
          ("ofm:", fun n -> bofm ~pct:n);
          ("bofm:", fun n -> bofm ~pct:n);
          ("of:", fun n -> bof ~pct:n);
          ("bof:", fun n -> bof ~pct:n);
        ]
    in
    match prefixed with
    | Some r -> r
    | None -> (
      match List.map int_of_string_opt (String.split_on_char '.' s) with
      | [ Some x; Some y ] when x >= 1 && x <= 100 && y >= 1 && y <= 100 ->
        Ok { (beltway_xy ~x ~y) with label = s }
      | [ Some x; Some y; Some 100 ] when x >= 1 && x <= 100 && y >= 1 && y <= 100 ->
        if x = y then Ok (beltway_xx100 ~x)
        else
          Ok
            {
              (beltway_xx100 ~x) with
              label = s;
              belts =
                [|
                  { bound = pct_bound x; promote = Next_belt };
                  { bound = pct_bound y; promote = Next_belt };
                  { bound = Whole_heap; promote = Same_belt };
                |];
            }
      | _ ->
        Error
          (Printf.sprintf
             "unrecognised collector %S (try: ss, appel, appel3, fixed:N, ofm:N, of:N, \
              X.Y, X.Y.100)"
             s)))

let parse s =
  match String.split_on_char '+' (String.trim s) with
  | [] | [ "" ] -> Error "empty collector specification"
  | b :: opts ->
    let ( let* ) = Result.bind in
    let* cfg = parse_base b in
    let* cfg =
      List.fold_left
        (fun acc opt ->
          let* cfg = acc in
          apply_option cfg opt)
        (Ok cfg) opts
    in
    let* cfg = validate { cfg with label = String.trim s } in
    Ok cfg
