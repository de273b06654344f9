(** Beltlang abstract syntax and the resolver.

    The compiler turns s-expressions into an AST with all variable
    references resolved to lexical coordinates (frame depth, slot
    index) so the interpreter's environments can be flat heap objects
    with no name lookup at run time. Globals are resolved to dense
    indices.

    Special forms: [define] (top level; [(define (f x) body)] sugar),
    [lambda], [if], [let], [begin], [set!], [while], [and], [or],
    [quote] (integers, booleans, symbols-as-errors, and lists thereof
    become heap data at load time). Everything else is a call, with
    primitives recognised by name. *)

type prim =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq_num
  | Eq_phys  (** eq?: physical/immediate identity *)
  | Not
  | Cons | Car | Cdr | Set_car | Set_cdr
  | Is_null | Is_pair
  | Vector_make  (** (make-vector n fill) *)
  | Vector_ref | Vector_set | Vector_length
  | Print  (** append the value's rendering to the output buffer *)

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
  globals : string array; (** global names, by index *)
  toplevel : (int option * expr) list;
      (** [(Some g, e)]: define global [g] as [e]; [(None, e)]: effectful
          top-level expression. *)
}

exception Compile_error of string

val compile : ?initial_globals:string list -> Sexp.t list -> program
(** [initial_globals] pre-declares names defined by previously loaded
    programs (they occupy the first global indices, in order), so an
    interpreter session can compile forms incrementally.
    @raise Compile_error on unbound variables, bad special forms or
    arity errors for primitives. *)

val int_literal : string -> [ `Int of int | `Out_of_range | `Symbol ]
(** How the front end reads an atom: an integer literal in [Value]'s
    62-bit immediate range [[-2^61, 2^61-1]], one outside it (in
    OCaml's integer syntax, however many digits), or a name.
    {!compile} rejects an out-of-range literal, quoted or not, with
    [Compile_error "integer literal out of range: ..."]. *)

val prim_name : prim -> string

val prims : (string * (prim * int)) list
(** Primitive name -> (operator, arity) — the resolver's table, shared
    with the static-analysis pass so the two cannot drift. *)
