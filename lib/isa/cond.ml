(* Condition codes for conditional branches.

   Flags are set by [cmp a b] (signed comparison of a and b) and
   [test a b] (comparison of [a land b] against zero).  The simulator
   materialises the flags as the three-way ordering of the two operands,
   which a condition code then consults. *)

type t = Eq | Ne | Lt | Le | Gt | Ge

let all = [ Eq; Ne; Lt; Le; Gt; Ge ]

let to_int = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let of_int = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Lt
  | 3 -> Le
  | 4 -> Gt
  | 5 -> Ge
  | n -> invalid_arg (Printf.sprintf "Cond.of_int %d" n)

(* The branch taken when this condition is false. *)
let invert = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(* [holds c ord] decides the condition given [ord = compare a b]. *)
let holds c ord =
  match c with
  | Eq -> ord = 0
  | Ne -> ord <> 0
  | Lt -> ord < 0
  | Le -> ord <= 0
  | Gt -> ord > 0
  | Ge -> ord >= 0

let name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
