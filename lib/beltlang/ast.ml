type prim =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq_num
  | Eq_phys
  | Not
  | Cons | Car | Cdr | Set_car | Set_cdr
  | Is_null | Is_pair
  | Vector_make
  | Vector_ref | Vector_set | Vector_length
  | Print

type expr =
  | Int of int
  | Bool of bool
  | Nil
  | Var of { depth : int; idx : int }
  | Global of int
  | If of expr * expr * expr
  | Let of { bindings : expr list; body : expr list }
  | Lambda of { lam : int }
  | Call of expr * expr list
  | Prim of prim * expr list
  | Begin of expr list
  | Set_var of { depth : int; idx : int; value : expr }
  | Set_global of { idx : int; value : expr }
  | While of { cond : expr; body : expr list }
  | And of expr list
  | Or of expr list
  | Quoted of Sexp.t

type lambda = { params : int; body : expr list; name : string }

type program = {
  lambdas : lambda array;
  globals : string array;
  toplevel : (int option * expr) list;
}

exception Compile_error of string

let err fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let prims =
  [
    ("+", (Add, 2)); ("-", (Sub, 2)); ("*", (Mul, 2)); ("/", (Div, 2));
    ("mod", (Mod, 2)); ("<", (Lt, 2)); ("<=", (Le, 2)); (">", (Gt, 2));
    (">=", (Ge, 2)); ("=", (Eq_num, 2)); ("eq?", (Eq_phys, 2)); ("not", (Not, 1));
    ("cons", (Cons, 2)); ("car", (Car, 1)); ("cdr", (Cdr, 1));
    ("set-car!", (Set_car, 2)); ("set-cdr!", (Set_cdr, 2));
    ("null?", (Is_null, 1)); ("pair?", (Is_pair, 1));
    ("make-vector", (Vector_make, 2)); ("vector-ref", (Vector_ref, 2));
    ("vector-set!", (Vector_set, 3)); ("vector-length", (Vector_length, 1));
    ("print", (Print, 1));
  ]

let prim_name p = fst (List.find (fun (_, (q, _)) -> q = p) prims)

type ctx = {
  scopes : string list list; (* innermost first *)
  globals : (string, int) Hashtbl.t;
  global_names : string Beltway_util.Vec.t;
  lambdas : lambda Beltway_util.Vec.t;
}

let lookup ctx name =
  let rec scan depth = function
    | [] -> None
    | frame :: rest -> (
      match List.find_index (String.equal name) frame with
      | Some idx -> Some (depth, idx)
      | None -> scan (depth + 1) rest)
  in
  scan 0 ctx.scopes

let global_idx ctx name = Hashtbl.find_opt ctx.globals name

let define_global ctx name =
  match Hashtbl.find_opt ctx.globals name with
  | Some i -> i
  | None ->
    let i = Beltway_util.Vec.length ctx.global_names in
    Hashtbl.replace ctx.globals name i;
    Beltway_util.Vec.push ctx.global_names name;
    i

(* Integer literals are immediates, so they must fit Value's 62-bit
   payload. Literals use OCaml's integer syntax: optional sign, then
   decimal digits or a 0x/0o/0b/0u prefix and digits of that base,
   underscores after the first digit. int_of_string rejects such an
   atom only when it overflows 63 bits, and wraps a prefixed one above
   max_int to the opposite sign. *)
let int_literal a =
  let n = String.length a in
  let neg = n > 0 && a.[0] = '-' in
  let i = if neg || (n > 0 && a.[0] = '+') then 1 else 0 in
  let dec = function '0' .. '9' -> true | _ -> false in
  let digit, j =
    if i + 1 < n && a.[i] = '0' then
      match a.[i + 1] with
      | 'x' | 'X' ->
        ((function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false), i + 2)
      | 'o' | 'O' -> ((function '0' .. '7' -> true | _ -> false), i + 2)
      | 'b' | 'B' -> ((function '0' | '1' -> true | _ -> false), i + 2)
      | 'u' | 'U' -> (dec, i + 2)
      | _ -> (dec, i)
    else (dec, i)
  in
  match int_of_string_opt a with
  | Some v when j > i && v <> 0 && (v < 0) <> neg -> `Out_of_range
  | Some v when v >= -(1 lsl 61) && v < 1 lsl 61 -> `Int v
  | Some _ -> `Out_of_range
  | None ->
    if j < n && digit a.[j]
       && String.for_all (fun c -> digit c || c = '_') (String.sub a j (n - j))
    then `Out_of_range
    else `Symbol

let out_of_range a = err "integer literal out of range: %s" a

let rec check_quoted = function
  | Sexp.Atom a -> if int_literal a = `Out_of_range then out_of_range a
  | Sexp.List items -> List.iter check_quoted items

let rec compile_expr ctx (s : Sexp.t) : expr =
  match s with
  | Sexp.Atom "#t" -> Bool true
  | Sexp.Atom "#f" -> Bool false
  | Sexp.Atom "nil" | Sexp.List [] -> Nil
  | Sexp.Atom a -> (
    match int_literal a with
    | `Int n -> Int n
    | `Out_of_range -> out_of_range a
    | `Symbol -> (
      match lookup ctx a with
      | Some (depth, idx) -> Var { depth; idx }
      | None -> (
        match global_idx ctx a with
        | Some g -> Global g
        | None -> err "unbound variable %s" a)))
  | Sexp.List (Sexp.Atom "quote" :: rest) -> (
    match rest with
    | [ q ] ->
      check_quoted q;
      Quoted q
    | _ -> err "quote expects one form")
  | Sexp.List (Sexp.Atom "if" :: rest) -> (
    match rest with
    | [ c; t ] -> If (compile_expr ctx c, compile_expr ctx t, Nil)
    | [ c; t; e ] -> If (compile_expr ctx c, compile_expr ctx t, compile_expr ctx e)
    | _ -> err "if expects 2 or 3 forms")
  | Sexp.List (Sexp.Atom "begin" :: body) -> Begin (List.map (compile_expr ctx) body)
  | Sexp.List (Sexp.Atom "lambda" :: rest) -> compile_lambda ctx ~name:"<lambda>" rest
  | Sexp.List (Sexp.Atom "let" :: Sexp.List bindings :: body) ->
    let names, exprs =
      List.split
        (List.map
           (function
             | Sexp.List [ Sexp.Atom n; e ] -> (n, e)
             | b -> err "bad let binding %a" Sexp.pp b)
           bindings)
    in
    let bindings = List.map (compile_expr ctx) exprs in
    let ctx' = { ctx with scopes = names :: ctx.scopes } in
    Let { bindings; body = List.map (compile_expr ctx') body }
  | Sexp.List [ Sexp.Atom "set!"; Sexp.Atom name; value ] -> (
    let value = compile_expr ctx value in
    match lookup ctx name with
    | Some (depth, idx) -> Set_var { depth; idx; value }
    | None -> (
      match global_idx ctx name with
      | Some idx -> Set_global { idx; value }
      | None -> err "set! of unbound variable %s" name))
  | Sexp.List (Sexp.Atom "while" :: cond :: body) ->
    While { cond = compile_expr ctx cond; body = List.map (compile_expr ctx) body }
  | Sexp.List (Sexp.Atom "and" :: rest) -> And (List.map (compile_expr ctx) rest)
  | Sexp.List (Sexp.Atom "or" :: rest) -> Or (List.map (compile_expr ctx) rest)
  | Sexp.List (Sexp.Atom op :: args) when List.mem_assoc op prims && lookup ctx op = None
                                          && global_idx ctx op = None ->
    let prim, arity = List.assoc op prims in
    if List.length args <> arity then
      err "%s expects %d arguments, got %d" op arity (List.length args);
    Prim (prim, List.map (compile_expr ctx) args)
  | Sexp.List (f :: args) ->
    Call (compile_expr ctx f, List.map (compile_expr ctx) args)

and compile_lambda ctx ~name = function
  | Sexp.List params :: body when body <> [] ->
    let params =
      List.map
        (function Sexp.Atom p -> p | s -> err "bad parameter %a" Sexp.pp s)
        params
    in
    let ctx' = { ctx with scopes = params :: ctx.scopes } in
    let body = List.map (compile_expr ctx') body in
    let lam = Beltway_util.Vec.length ctx.lambdas in
    Beltway_util.Vec.push ctx.lambdas { params = List.length params; body; name };
    Lambda { lam }
  | _ -> err "bad lambda"

let compile_top ctx (s : Sexp.t) : int option * expr =
  match s with
  | Sexp.List [ Sexp.Atom "define"; Sexp.Atom name; value ] ->
    let g = define_global ctx name in
    (Some g, compile_expr ctx value)
  | Sexp.List (Sexp.Atom "define" :: Sexp.List (Sexp.Atom name :: params) :: body) ->
    let g = define_global ctx name in
    (Some g, compile_lambda ctx ~name (Sexp.List params :: body))
  | other -> (None, compile_expr ctx other)

let compile ?(initial_globals = []) forms =
  let ctx =
    {
      scopes = [];
      globals = Hashtbl.create 32;
      global_names = Beltway_util.Vec.create ~dummy:"" ();
      lambdas = Beltway_util.Vec.create ~dummy:{ params = 0; body = []; name = "" } ();
    }
  in
  List.iter (fun name -> ignore (define_global ctx name)) initial_globals;
  (* Pre-declare every top-level defined name so definitions can be
     mutually recursive. *)
  List.iter
    (function
      | Sexp.List (Sexp.Atom "define" :: Sexp.Atom name :: _) ->
        ignore (define_global ctx name)
      | Sexp.List (Sexp.Atom "define" :: Sexp.List (Sexp.Atom name :: _) :: _) ->
        ignore (define_global ctx name)
      | _ -> ())
    forms;
  let toplevel = List.map (compile_top ctx) forms in
  {
    lambdas = Beltway_util.Vec.to_array ctx.lambdas;
    globals = Beltway_util.Vec.to_array ctx.global_names;
    toplevel;
  }
