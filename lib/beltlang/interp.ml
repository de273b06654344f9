module Vec = Beltway_util.Vec

exception Runtime_error of string

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type t = {
  gc : Beltway.Gc.t;
  pair_ty : Type_registry.id;
  vector_ty : Type_registry.id;
  closure_ty : Type_registry.id;
  env_ty : Type_registry.id;
  lambdas : Ast.lambda Vec.t; (* persistent across runs; closures hold indices *)
  globals : (string, Roots.global) Hashtbl.t;
  buf : Buffer.t;
}

let create gc =
  {
    gc;
    pair_ty = Beltway.Gc.register_type gc ~name:"beltlang.pair";
    vector_ty = Beltway.Gc.register_type gc ~name:"beltlang.vector";
    closure_ty = Beltway.Gc.register_type gc ~name:"beltlang.closure";
    env_ty = Beltway.Gc.register_type gc ~name:"beltlang.env";
    lambdas = Vec.create ~dummy:{ Ast.params = 0; body = []; name = "" } ();
    globals = Hashtbl.create 32;
    buf = Buffer.create 256;
  }

let gc t = t.gc
let output t = Buffer.contents t.buf
let clear_output t = Buffer.clear t.buf

let global t name =
  Option.map (Roots.get_global (Beltway.Gc.roots t.gc)) (Hashtbl.find_opt t.globals name)

(* Truthiness: #f (the immediate 0) and nil are false. *)
let truthy v = not (Value.is_null v || (Value.is_int v && Value.to_int v = 0))
let vtrue = Value.of_int 1
let vfalse = Value.of_int 0
let of_bool b = if b then vtrue else vfalse

type ctx = { t : t; base : int; genv : Roots.global array }

let roots ctx = Beltway.Gc.roots ctx.t.gc
let push ctx v = Roots.push (roots ctx) v
let peek ctx i = Roots.peek (roots ctx) i

let release ctx n =
  let r = roots ctx in
  Roots.release r (Roots.depth r - n)

(* Type checks *)
let as_int what v = if Value.is_int v then Value.to_int v else err "%s: expected an integer" what

let as_obj ctx ~ty what v =
  if not (Value.is_ref v) then err "%s: expected a %s" what ty;
  let addr = Value.to_addr v in
  match Beltway.Gc.type_of ctx.t.gc addr with
  | Some id
    when (ty = "pair" && id = ctx.t.pair_ty)
         || (ty = "vector" && id = ctx.t.vector_ty)
         || (ty = "closure" && id = ctx.t.closure_ty) ->
    addr
  | _ -> err "%s: expected a %s" what ty

(* Environment frames: slot 0 = parent, slots 1.. = variables. The
   current frame lives at a fixed absolute shadow-stack index so
   collections keep it current. *)
let env_addr ctx ~env depth =
  let v = ref (Roots.stack_get (roots ctx) env) in
  for _ = 1 to depth do
    if not (Value.is_ref !v) then err "internal: environment chain broken";
    v := Beltway.Gc.read ctx.t.gc (Value.to_addr !v) 0
  done;
  if not (Value.is_ref !v) then err "internal: environment chain broken";
  Value.to_addr !v

let render ctx v =
  let b = Buffer.create 32 in
  let rec go v =
    if Value.is_null v then Buffer.add_string b "()"
    else if Value.is_int v then Buffer.add_string b (string_of_int (Value.to_int v))
    else begin
      let addr = Value.to_addr v in
      match Beltway.Gc.type_of ctx.t.gc addr with
      | Some id when id = ctx.t.pair_ty ->
        Buffer.add_char b '(';
        let rec elems v first =
          if Value.is_null v then ()
          else if Value.is_ref v
                  && Beltway.Gc.type_of ctx.t.gc (Value.to_addr v) = Some ctx.t.pair_ty
          then begin
            if not first then Buffer.add_char b ' ';
            let a = Value.to_addr v in
            go (Beltway.Gc.read ctx.t.gc a 0);
            elems (Beltway.Gc.read ctx.t.gc a 1) false
          end
          else begin
            Buffer.add_string b " . ";
            go v
          end
        in
        elems v true;
        Buffer.add_char b ')'
      | Some id when id = ctx.t.vector_ty ->
        Buffer.add_string b "#(";
        let n = Beltway.Gc.nfields ctx.t.gc addr in
        for i = 0 to n - 1 do
          if i > 0 then Buffer.add_char b ' ';
          go (Beltway.Gc.read ctx.t.gc addr i)
        done;
        Buffer.add_char b ')'
      | Some id when id = ctx.t.closure_ty -> Buffer.add_string b "#<closure>"
      | _ -> Buffer.add_string b "#<object>"
    end
  in
  go v;
  Buffer.contents b

let rec eval ctx ~env (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int n -> Value.of_int n
  | Ast.Bool b -> of_bool b
  | Ast.Nil -> Value.null
  | Ast.Var { depth; idx } ->
    Beltway.Gc.read ctx.t.gc (env_addr ctx ~env depth) (idx + 1)
  | Ast.Global g -> Roots.get_global (roots ctx) ctx.genv.(g)
  | Ast.If (c, th, el) ->
    if truthy (eval ctx ~env c) then eval ctx ~env th else eval ctx ~env el
  | Ast.Begin body -> eval_body ctx ~env body
  | Ast.And body ->
    let rec go = function
      | [] -> vtrue
      | [ last ] -> eval ctx ~env last
      | x :: rest -> if truthy (eval ctx ~env x) then go rest else vfalse
    in
    go body
  | Ast.Or body ->
    let rec go = function
      | [] -> vfalse
      | x :: rest ->
        let v = eval ctx ~env x in
        if truthy v then v else go rest
    in
    go body
  | Ast.While { cond; body } ->
    while truthy (eval ctx ~env cond) do
      ignore (eval_body ctx ~env body)
    done;
    Value.null
  | Ast.Set_var { depth; idx; value } ->
    let v = eval ctx ~env value in
    (* env_addr re-reads the (possibly moved) frame after evaluation;
       no allocation happens in between. *)
    Beltway.Gc.write ctx.t.gc (env_addr ctx ~env depth) (idx + 1) v;
    Value.null
  | Ast.Set_global { idx; value } ->
    let v = eval ctx ~env value in
    Roots.set_global (roots ctx) ctx.genv.(idx) v;
    Value.null
  | Ast.Lambda { lam } ->
    let addr = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.closure_ty ~nfields:2 in
    Beltway.Gc.write ctx.t.gc addr 0 (Roots.stack_get (roots ctx) env);
    Beltway.Gc.write ctx.t.gc addr 1 (Value.of_int (ctx.base + lam));
    Value.of_addr addr
  | Ast.Let { bindings; body } ->
    let k = List.length bindings in
    List.iter (fun b -> push ctx (eval ctx ~env b)) bindings;
    let frame = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.env_ty ~nfields:(k + 1) in
    Beltway.Gc.write ctx.t.gc frame 0 (Roots.stack_get (roots ctx) env);
    for i = 0 to k - 1 do
      Beltway.Gc.write ctx.t.gc frame (i + 1) (peek ctx (k - 1 - i))
    done;
    push ctx (Value.of_addr frame);
    let new_env = Roots.depth (roots ctx) - 1 in
    let result = eval_body ctx ~env:new_env body in
    release ctx (k + 1);
    result
  | Ast.Call (f, args) ->
    let fv = eval ctx ~env f in
    push ctx fv;
    List.iter (fun a -> push ctx (eval ctx ~env a)) args;
    let nargs = List.length args in
    let clos = as_obj ctx ~ty:"closure" "call" (peek ctx nargs) in
    let lam_id = as_int "call" (Beltway.Gc.read ctx.t.gc clos 1) in
    let lam = Vec.get ctx.t.lambdas lam_id in
    if lam.Ast.params <> nargs then
      err "%s expects %d arguments, got %d" lam.Ast.name lam.Ast.params nargs;
    let frame = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.env_ty ~nfields:(nargs + 1) in
    (* Re-resolve the closure: the allocation may have moved it. *)
    let clos = Value.to_addr (peek ctx nargs) in
    Beltway.Gc.write ctx.t.gc frame 0 (Beltway.Gc.read ctx.t.gc clos 0);
    for i = 0 to nargs - 1 do
      Beltway.Gc.write ctx.t.gc frame (i + 1) (peek ctx (nargs - 1 - i))
    done;
    push ctx (Value.of_addr frame);
    let new_env = Roots.depth (roots ctx) - 1 in
    let result = eval_body ctx ~env:new_env lam.Ast.body in
    release ctx (nargs + 2);
    result
  | Ast.Prim (p, args) ->
    List.iter (fun a -> push ctx (eval ctx ~env a)) args;
    let n = List.length args in
    let result = apply_prim ctx p n in
    release ctx n;
    result
  | Ast.Quoted q -> quote ctx q

and eval_body ctx ~env = function
  | [] -> Value.null
  | [ last ] -> eval ctx ~env last
  | x :: rest ->
    ignore (eval ctx ~env x);
    eval_body ctx ~env rest

and quote ctx (s : Sexp.t) : Value.t =
  match s with
  | Sexp.Atom "#t" -> vtrue
  | Sexp.Atom "#f" -> vfalse
  | Sexp.Atom "nil" -> Value.null
  | Sexp.Atom a -> (
    match Ast.int_literal a with
    | `Int n -> Value.of_int n
    | `Out_of_range | `Symbol -> err "quote: symbols are not supported (%s)" a)
  | Sexp.List items ->
    let rec build = function
      | [] -> Value.null
      | x :: rest ->
        let tail = build rest in
        push ctx tail;
        let head = quote ctx x in
        push ctx head;
        let pair = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.pair_ty ~nfields:2 in
        Beltway.Gc.write ctx.t.gc pair 0 (peek ctx 0);
        Beltway.Gc.write ctx.t.gc pair 1 (peek ctx 1);
        release ctx 2;
        Value.of_addr pair
    in
    build items

and apply_prim ctx p n : Value.t =
  (* Arguments sit on the shadow stack: arg i at peek (n-1-i). *)
  let arg i = peek ctx (n - 1 - i) in
  let int_op what f =
    let a = as_int what (arg 0) and b = as_int what (arg 1) in
    Value.of_int (f a b)
  in
  let cmp what f =
    let a = as_int what (arg 0) and b = as_int what (arg 1) in
    of_bool (f a b)
  in
  match p with
  | Ast.Add -> int_op "+" ( + )
  | Ast.Sub -> int_op "-" ( - )
  | Ast.Mul -> int_op "*" ( * )
  | Ast.Div ->
    if as_int "/" (arg 1) = 0 then err "division by zero";
    int_op "/" ( / )
  | Ast.Mod ->
    if as_int "mod" (arg 1) = 0 then err "mod by zero";
    int_op "mod" ( mod )
  | Ast.Lt -> cmp "<" ( < )
  | Ast.Le -> cmp "<=" ( <= )
  | Ast.Gt -> cmp ">" ( > )
  | Ast.Ge -> cmp ">=" ( >= )
  | Ast.Eq_num -> cmp "=" ( = )
  | Ast.Eq_phys -> of_bool (arg 0 = arg 1)
  | Ast.Not -> of_bool (not (truthy (arg 0)))
  | Ast.Cons ->
    let pair = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.pair_ty ~nfields:2 in
    Beltway.Gc.write ctx.t.gc pair 0 (arg 0);
    Beltway.Gc.write ctx.t.gc pair 1 (arg 1);
    Value.of_addr pair
  | Ast.Car -> Beltway.Gc.read ctx.t.gc (as_obj ctx ~ty:"pair" "car" (arg 0)) 0
  | Ast.Cdr -> Beltway.Gc.read ctx.t.gc (as_obj ctx ~ty:"pair" "cdr" (arg 0)) 1
  | Ast.Set_car ->
    Beltway.Gc.write ctx.t.gc (as_obj ctx ~ty:"pair" "set-car!" (arg 0)) 0 (arg 1);
    Value.null
  | Ast.Set_cdr ->
    Beltway.Gc.write ctx.t.gc (as_obj ctx ~ty:"pair" "set-cdr!" (arg 0)) 1 (arg 1);
    Value.null
  | Ast.Is_null -> of_bool (Value.is_null (arg 0))
  | Ast.Is_pair ->
    of_bool
      (Value.is_ref (arg 0)
      && Beltway.Gc.type_of ctx.t.gc (Value.to_addr (arg 0)) = Some ctx.t.pair_ty)
  | Ast.Vector_make ->
    let len = as_int "make-vector" (arg 0) in
    if len < 0 then err "make-vector: negative length";
    let v = Beltway.Gc.alloc ctx.t.gc ~ty:ctx.t.vector_ty ~nfields:len in
    let fill = arg 1 in
    if not (Value.is_null fill) then
      for i = 0 to len - 1 do
        Beltway.Gc.write ctx.t.gc v i fill
      done;
    Value.of_addr v
  | Ast.Vector_ref ->
    let v = as_obj ctx ~ty:"vector" "vector-ref" (arg 0) in
    let i = as_int "vector-ref" (arg 1) in
    if i < 0 || i >= Beltway.Gc.nfields ctx.t.gc v then err "vector-ref: index %d out of bounds" i;
    Beltway.Gc.read ctx.t.gc v i
  | Ast.Vector_set ->
    let v = as_obj ctx ~ty:"vector" "vector-set!" (arg 0) in
    let i = as_int "vector-set!" (arg 1) in
    if i < 0 || i >= Beltway.Gc.nfields ctx.t.gc v then err "vector-set!: index %d out of bounds" i;
    Beltway.Gc.write ctx.t.gc v i (arg 2);
    Value.null
  | Ast.Vector_length ->
    Value.of_int (Beltway.Gc.nfields ctx.t.gc (as_obj ctx ~ty:"vector" "vector-length" (arg 0)))
  | Ast.Print ->
    Buffer.add_string ctx.t.buf (render ctx (arg 0));
    Buffer.add_char ctx.t.buf '\n';
    Value.null

let run t (prog : Ast.program) =
  let base = Vec.length t.lambdas in
  Array.iter (fun lam -> Vec.push t.lambdas lam) prog.Ast.lambdas;
  let r = Beltway.Gc.roots t.gc in
  let genv =
    Array.map
      (fun name ->
        match Hashtbl.find_opt t.globals name with
        | Some g -> g
        | None ->
          let g = Roots.new_global r Value.null in
          Hashtbl.replace t.globals name g;
          g)
      prog.Ast.globals
  in
  let ctx = { t; base; genv } in
  let m = Roots.mark r in
  (* Errors (including Out_of_memory) may abandon shadow-stack entries
     mid-evaluation; restore the caller's watermark unconditionally. *)
  Fun.protect
    ~finally:(fun () -> Roots.release r m)
    (fun () ->
      (* Top level runs in a degenerate root frame. *)
      let frame = Beltway.Gc.alloc t.gc ~ty:t.env_ty ~nfields:1 in
      push ctx (Value.of_addr frame);
      let env = Roots.depth r - 1 in
      List.iter
        (fun (target, e) ->
          let v = eval ctx ~env e in
          match target with
          | Some g -> Roots.set_global r genv.(g) v
          | None -> ())
        prog.Ast.toplevel)

let run_string t src =
  let initial_globals = Hashtbl.fold (fun name _ acc -> name :: acc) t.globals [] in
  run t (Ast.compile ~initial_globals (Sexp.parse_string src))
