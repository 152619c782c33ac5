(* Abstract syntax of MiniC, the C subset the workloads are written in.

   The language is small but covers everything the BOLT evaluation needs
   from its input programs: integer scalars and global arrays, rich control
   flow (if/while/switch with dense cases), direct and indirect calls
   through function pointers, read-only constant tables, exceptions
   (try/catch/throw) and I/O primitives for observable behaviour. *)

type pos = { file : string; line : int }

let dummy_pos = { file = "<builtin>"; line = 0 }

type binop =
  | Badd
  | Bsub
  | Bmul
  | Bdiv
  | Bmod
  | Band
  | Bor
  | Bxor
  | Bshl
  | Bshr
  | Beq
  | Bne
  | Blt
  | Ble
  | Bgt
  | Bge
  | Bland (* short-circuit && *)
  | Blor (* short-circuit || *)

type expr =
  | Eint of int
  | Evar of string
  | Ebin of binop * expr * expr
  | Eneg of expr
  | Enot of expr
  | Ecall of string * expr list
  | Ecall_ind of expr * expr list (* "(&e)(args)" syntax *)
  | Eindex of string * expr (* global array or const table element *)
  | Eaddr of string (* &name: address of a function or global *)
  | Ein (* in(): next value of the input tape *)

type stmt = { sk : stmt_kind; pos : pos }

and stmt_kind =
  | Svar of string * expr (* var x = e; introduces a local *)
  | Sassign of string * expr
  | Sstore of string * expr * expr (* a[i] = e; *)
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sswitch of expr * (int * stmt list) list * stmt list
  | Sreturn of expr option
  | Sexpr of expr
  | Sout of expr (* out e; appends to the output tape *)
  | Sthrow of expr
  | Stry of stmt list * string * stmt list (* try B catch (x) H *)
  | Sbreak
  | Scontinue

type func = {
  fn_name : string;
  fn_params : string list;
  fn_body : stmt list;
  fn_inline : bool; (* 'inline' keyword: always-inline hint *)
  fn_pos : pos;
}

type decl =
  | Dfunc of func
  | Dextern of string * int (* extern fn name(arity); defined elsewhere *)
  | Dglobal of string * int (* global scalar with initial value *)
  | Darray of string * int (* zero-initialised global array (.bss) *)
  | Dconst of string * int list (* read-only table (.rodata) *)

type module_ = { m_name : string; m_decls : decl list }
