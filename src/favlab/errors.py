"""Exception hierarchy. Every error carries a short machine-readable code
that the CLI prints as ``ERROR <code>: <detail>``."""


class FavlabError(Exception):
    code = "error"

    def __init__(self, detail=""):
        self.detail = detail
        super().__init__(detail)

    def __str__(self):
        return f"{self.code}: {self.detail}" if self.detail else self.code


class ConfigError(FavlabError):
    code = "config"


class SymbolOutOfRange(FavlabError):
    code = "symbol"


class NoNetWithinBound(FavlabError):
    code = "no-net"


class RationalAlpha(FavlabError):
    code = "rational-alpha"


class BudgetExhausted(FavlabError):
    code = "budget"


class VerificationFailed(FavlabError):
    code = "verification"


class PreconditionViolated(FavlabError):
    code = "precondition"


class Indeterminate(FavlabError):
    code = "indeterminate"


class LevelTooLarge(FavlabError):
    code = "level-too-large"


class RhoTooSmall(FavlabError):
    code = "rho-too-small"


class ResolutionTooCoarse(FavlabError):
    code = "resolution"


class NumericOverflow(FavlabError):
    code = "overflow"


class NonHomogeneous(FavlabError):
    code = "non-homogeneous"


class DegenerateFit(FavlabError):
    code = "degenerate-fit"


class EnumerationCap(FavlabError):
    code = "enumeration-cap"


class HullNotInvariant(FavlabError):
    code = "hull"
